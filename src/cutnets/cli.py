"""Command-line interface.

Exit codes: 0 affirmative/success, 1 negative decision, 2 usage, parse or
precondition error, 3 budget exceeded, 4 internal error (any other
exception, reported as ``internal error: <Type>: <message>``).  Certificates
for negative decisions go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import sys

import click

from . import containment, cuttable, formats, generate, orient, reference, sat
from .errors import (
    BudgetExceeded,
    InputError,
    NotTwoCuttable,
    TooLarge,
    UnsatisfiedAssignment,
)

# a directory where a file belongs is a usage error (exit 2), caught by click
_INPUT_FILE = click.Path(exists=True, dir_okay=False)
_OUTPUT_FILE = click.Path(dir_okay=False)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        _file_error("read", path, exc)


def _write(path, text: str) -> None:
    if path is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        _file_error("write", path, exc)


def _file_error(verb: str, path: str, exc: Exception):
    """A file that cannot be read or written is a usage error: exit 2."""
    reason = getattr(exc, "strerror", None) or exc
    click.echo(f"error: cannot {verb} {path}: {reason}", err=True)
    sys.exit(2)


class _Cli(click.Group):
    """The command group; it maps what escapes a command to an exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:   # exit 2, never 1, which means "no"
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (TooLarge, BudgetExceeded) as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(3)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)


@click.group(cls=_Cli)
def cli():
    """Tools for q-cuttable phylogenetic networks."""


@cli.command()
@click.option("--q", "q", type=int, required=True, help="chain length threshold")
@click.argument("net_file", type=_INPUT_FILE)
def recognize(q, net_file):
    """Decide whether NET_FILE is q-cuttable."""
    net = formats.parse_upn(_read(net_file))
    report = cuttable.is_q_cuttable(net, q)
    if report.is_cuttable:
        click.echo("q-cuttable: yes")
        sys.exit(0)
    click.echo("q-cuttable: no")
    click.echo(f"witness cycle: {'-'.join(str(v) for v in report.witness_cycle)}")
    sys.exit(1)


@cli.command()
@click.argument("net_file", type=_INPUT_FILE)
def stats(net_file):
    """Structural summary of an unrooted network."""
    net = formats.parse_upn(_read(net_file))
    click.echo(f"leaves: {len(net.leaf_labels)}")
    click.echo(f"vertices: {len(net.vertices)}")
    click.echo(f"edges: {len(net.edges)}")
    click.echo(f"reticulation number: {net.reticulation_number()}")
    click.echo(f"level: {net.level()}")
    blobs = net.blobs()
    click.echo(f"blobs: {len(blobs)}" +
               (f" (sizes {', '.join(str(len(b.vertices)) for b in blobs)})" if blobs else ""))
    chains = net.maximal_chains()
    click.echo(f"maximal chains: {len(chains)}" +
               (f" (lengths {', '.join(str(c.length) for c in chains)})" if chains else ""))
    mc = cuttable.max_cuttability(net)
    click.echo(f"max cuttability: {'unbounded (tree)' if mc is None else mc}")


@cli.command("orient")
@click.argument("net_file", type=_INPUT_FILE)
@click.option("--method", type=click.Choice(["constructive", "brute"]), default="constructive")
@click.option("-o", "--output", type=_OUTPUT_FILE, default=None)
def orient_cmd(net_file, method, output):
    """Produce a tree-child orientation (constructive needs 2-cuttability)."""
    net = formats.parse_upn(_read(net_file))
    if method == "constructive":
        try:
            rooted = orient.tree_child_orient_2cuttable(net)
        except NotTwoCuttable as exc:
            click.echo(f"no orientation produced: {exc}")
            sys.exit(1)
    else:
        rooted = reference.brute_force_tree_child_orientation(net)
        if rooted is None:
            click.echo("no tree-child orientation exists")
            sys.exit(1)
    _write(output, formats.serialize_enewick(rooted) + "\n")


@cli.command("check-tree-child")
@click.argument("rooted_file", type=_INPUT_FILE)
def check_tree_child(rooted_file):
    """Check whether a rooted network is tree-child."""
    rooted = formats.parse_enewick(_read(rooted_file))
    if orient.is_tree_child(rooted):
        click.echo("tree-child: yes")
        sys.exit(0)
    click.echo("tree-child: no")
    sys.exit(1)


@cli.command()
@click.argument("tree_file", type=_INPUT_FILE)
@click.argument("net_file", type=_INPUT_FILE)
@click.option("--oracle", is_flag=True, help="use the exhaustive embedding search")
@click.option("--trace", "trace_file", type=_OUTPUT_FILE, default=None)
def contain(tree_file, net_file, oracle, trace_file):
    """Decide whether the network displays the tree (3-cuttable algorithm)."""
    tree = formats.parse_newick_tree(_read(tree_file))
    net = formats.parse_upn(_read(net_file))
    if oracle:
        emb = reference.display_oracle(tree, net)
        click.echo(f"displays: {'yes' if emb else 'no'}")
        sys.exit(0 if emb else 1)
    verdict, trace = containment.three_cuttable_tc(tree, net)
    if trace_file:
        _write(trace_file, containment.serialize_trace(trace))
    click.echo(f"displays: {'yes' if verdict else 'no'}")
    if not verdict:   # the event before NO decided it; earlier RULEs said yes to pieces
        decisive = trace[-2]
        click.echo(f"certificate: {decisive.kind} {decisive.detail}")
    sys.exit(0 if verdict else 1)


@cli.group("sat")
def sat_group():
    """The reduction from 2-Balanced 3-SAT to Tree-Child Orientation."""


@sat_group.command("reduce")
@click.argument("cnf_file", type=_INPUT_FILE)
@click.option("-o", "--output", type=_OUTPUT_FILE, required=True)
@click.option("--gmap", "gmap_file", type=_OUTPUT_FILE, required=True)
def sat_reduce(cnf_file, output, gmap_file):
    """Build the unrooted network for a 2-balanced formula."""
    cnf = formats.parse_dimacs_cnf(_read(cnf_file))
    net, gmap = sat.build_u_phi(cnf)
    _write(output, formats.serialize_upn(net))
    _write(gmap_file, sat.serialize_gmap(gmap))
    click.echo(f"wrote {output} ({len(net.leaf_labels)} leaves) and {gmap_file}")


@sat_group.command("orient")
@click.argument("cnf_file", type=_INPUT_FILE)
@click.option("--assignment", required=True,
              help="compact truth string, one T/F per variable (e.g. TFF)")
@click.option("-o", "--output", type=_OUTPUT_FILE, required=True)
@click.option("--gmap", "gmap_file", type=_OUTPUT_FILE, required=True)
def sat_orient(cnf_file, assignment, output, gmap_file):
    """Orient the reduction network under a satisfying assignment."""
    cnf = formats.parse_dimacs_cnf(_read(cnf_file))
    if len(assignment) != cnf.n or set(assignment) - {"T", "F"}:
        click.echo("error: assignment must be a T/F string, one letter per variable", err=True)
        sys.exit(2)
    beta = {i + 1: ch == "T" for i, ch in enumerate(assignment)}
    try:   # a formula that is not 2-balanced is exit 2, and is checked first
        rooted, gmap = sat._orient(cnf, beta)
    except UnsatisfiedAssignment as exc:
        click.echo(f"no orientation produced: {exc}")
        sys.exit(1)
    _write(output, formats.serialize_enewick(rooted) + "\n")
    _write(gmap_file, sat.serialize_gmap(gmap))


@sat_group.command("extract")
@click.argument("rooted_file", type=_INPUT_FILE)
@click.option("--gmap", "gmap_file", type=_INPUT_FILE, required=True)
@click.option("--cnf", "cnf_file", type=_INPUT_FILE, required=True)
def sat_extract(rooted_file, gmap_file, cnf_file):
    """Read a satisfying assignment off a tree-child orientation."""
    rooted = formats.parse_enewick(_read(rooted_file))
    gmap = sat.parse_gmap(_read(gmap_file))
    cnf = formats.parse_dimacs_cnf(_read(cnf_file))
    if cnf.n != gmap.variable_count:
        click.echo(f"error: the formula has {cnf.n} variables but the gadget map "
                   f"has {gmap.variable_count}", err=True)
        sys.exit(2)
    # a failed extraction means the input was no tree-child orientation of
    # the recorded network: bad input, not a negative decision
    beta = sat.extract_assignment(rooted, gmap)
    text = "".join("T" if beta[i] else "F" for i in range(1, cnf.n + 1))
    click.echo(f"assignment: {text}")
    if sat.assignment_satisfies(cnf, beta):
        click.echo("satisfies: yes")
        sys.exit(0)
    click.echo("satisfies: no")
    sys.exit(1)


@cli.group("gen")
def gen_group():
    """Seeded generators."""


@gen_group.command("tree")
@click.option("--leaves", type=click.IntRange(min=2), required=True)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=_OUTPUT_FILE, default=None)
def gen_tree(leaves, seed, output):
    labels = [f"t{i}" for i in range(1, leaves + 1)]
    tree = generate.random_tree(labels, seed)
    _write(output, formats.serialize_newick_tree(tree) + "\n")


@gen_group.command("net")
@click.option("--leaves", type=int, required=True)
@click.option("--r", "target_r", type=int, default=1)
@click.option("--q", "target_q", type=int, default=1)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=_OUTPUT_FILE, default=None)
def gen_net(leaves, target_r, target_q, seed, output):
    try:
        config = generate.GenConfig(seed=seed, leaf_count=leaves,
                                    target_r=target_r, target_q=target_q)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    net = generate.random_q_cuttable(config)
    _write(output, formats.serialize_upn(net))


@gen_group.command("cnf")
@click.option("--vars", "n", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=_OUTPUT_FILE, default=None)
def gen_cnf(n, seed, output):
    cnf = generate.random_2balanced_cnf(n, seed)
    _write(output, formats.serialize_dimacs_cnf(cnf))


def main():
    cli()


if __name__ == "__main__":
    main()
