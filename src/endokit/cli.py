"""Command-line surface: enumerations, coefficients, descents, campaigns.

All numeric output is exact (num/den strings); exit codes are stable:
0 all checks pass, 1 an identity failed, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from fractions import Fraction

import click

from .ambient import Ambient
from .campaign import FAULTS, SUITES, CampaignSpec, check_scenario, run_campaign
from .catalog import LeviDatum, levi_data, sp, u
from .descent import DescentScenario, descend
from .enatural import enumerate_E_natural
from .endoscopy import (
    ArthurConfig,
    EigenMultiset,
    EllipticDatumMeta,
    SElement,
    SpEllipticDatum,
    UEllipticDatum,
    arthur_L_of_s,
    correspond_lie,
    correspond_mu,
    e_set,
    elliptic_data_meta,
    endoscopic_group_meta,
    g_of_s,
    i_meta,
    i_standard,
)
from .errors import EndokitError
from .nonstandard import NSLeviPair, build_triple, c_nonstandard_raw
from .qspaces import d_coefficient
from .rootsofunity import sc_str

EXIT_IDENTITY_FAILURE = 1
EXIT_DOMAIN_ERROR = 3


def _emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True)
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:
        widths: dict[str, int] = {}
        for row in rows:
            for k, v in row.items():
                widths[k] = max(widths.get(k, len(k)), len(str(v)))
        lines = []
        if rows:
            lines.append("  ".join(k.ljust(widths[k]) for k in rows[0]))
            for row in rows:
                lines.append("  ".join(str(v).ljust(widths[k]) for k, v in row.items()))
        text = "\n".join(lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _out_path(out: str | None, default_name: str) -> str | None:
    if out:
        return out
    env_dir = os.environ.get("ENDOKIT_OUT_DIR")
    if env_dir:
        return os.path.join(env_dir, default_name)
    return None


def _parse_ints(text: str | None, option: str) -> tuple[int, ...]:
    """A comma list of integers for ``option``; anything else is a usage error."""
    try:
        return tuple(int(x) for x in (text or "").split(",") if x.strip())
    except ValueError as exc:
        raise click.UsageError(f"bad {option} {text!r}: {exc}")


def _parse_s0(text: str) -> tuple[int, int]:
    """A base datum ``m',m''``; anything else is a usage error."""
    try:
        mp, md = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad --s0 {text!r}: {exc}")
    return mp, md


def _parse_signs(text: str) -> tuple[int, ...]:
    """A comma list of ``+`` and ``-``; anything else is a usage error."""
    try:
        return tuple({"+": 1, "-": -1}[x.strip()] for x in text.split(","))
    except KeyError as exc:
        raise click.UsageError(f"bad --signs entry {exc.args[0]!r}: give + or -")


def _parse_rationals(text: str) -> list[Fraction]:
    return [Fraction(x.strip()) for x in text.split(",") if x.strip()]


def _parse_vectors(text: str, option: str) -> list[list[Fraction]]:
    """Semicolon-separated rational vectors for ``option``; anything else is a usage error."""
    try:
        return [_parse_rationals(part) for part in text.split(";") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad {option} {text!r}: {exc}")


@click.group()
def main() -> None:
    """Exact enumeration and verification of endoscopic-data combinatorics."""


@main.command()
@click.option("--n", type=int, required=True, help="ambient rank")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def levi(n: int, fmt: str, out: str | None) -> None:
    """List the Levi classes of a rank-n symplectic group."""
    if n < 0:
        raise click.UsageError("rank must be nonnegative")
    rows = [
        {"sizes": ",".join(map(str, d.sizes)) or "-", "remainder": d.remainder}
        for d in levi_data(n)
    ]
    _emit(rows, fmt, _out_path(out, f"levi-{n}.{fmt}"))


@main.command()
@click.option("--m", type=int, required=True, help="symplectic remainder rank")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def endo(m: int, fmt: str, out: str | None) -> None:
    """List the elliptic data over a rank-m metaplectic factor."""
    if m < 0:
        raise click.UsageError("rank must be nonnegative")
    rows = []
    for d in elliptic_data_meta(m):
        levi_d = LeviDatum((), m)
        rows.append(
            {
                "m_prime": d.m_prime,
                "m_dblprime": d.m_dblprime,
                "group": endoscopic_group_meta(levi_d, d).display(),
            }
        )
    _emit(rows, fmt, _out_path(out, f"endo-{m}.{fmt}"))


@main.command()
@click.option("--i", "block_count", type=int, default=None, help="number of unit GL blocks")
@click.option("--sizes", type=str, default=None, help="comma-separated GL block sizes")
@click.option("--m", type=int, default=0, help="symplectic remainder rank")
@click.option("--s0", type=str, default=None, help="base datum as m',m''")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def eset(block_count: int | None, sizes: str | None, m: int, s0: str | None, fmt: str, out: str | None) -> None:
    """List the data lying over a base elliptic datum."""
    if sizes is None and block_count is None:
        raise click.UsageError("give --sizes or --i")
    if block_count is not None and block_count < 0:
        raise click.UsageError("block count must be nonnegative")
    try:
        datum = LeviDatum(_parse_ints(sizes, "--sizes") if sizes is not None else tuple([1] * block_count), m)
        if s0:
            base = EllipticDatumMeta(*_parse_s0(s0))
        else:
            base = EllipticDatumMeta(m, 0)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        data = e_set(datum, base)
    except EndokitError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN_ERROR)
    rows = []
    for s in data:
        gos = g_of_s(s)
        rows.append(
            {
                "signs": ",".join("+" if x == 1 else "-" for x in s.signs) or "-",
                "n_prime": gos.n_prime,
                "n_dblprime": gos.n_dblprime,
                "group": gos.group.display(),
            }
        )
    _emit(rows, fmt, _out_path(out, f"eset.{fmt}"))


@main.command()
@click.option("--gamma-prime", required=True, help="comma list of rational eigenvalues")
@click.option("--gamma-dblprime", required=True, help="comma list of rational eigenvalues")
@click.option("--lie", is_flag=True, help="additive (Lie-algebra) variant")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def correspond(gamma_prime: str, gamma_dblprime: str, lie: bool, fmt: str, out: str | None) -> None:
    """Image of a pair of orthogonal classes under the class correspondence."""
    try:
        gp = _parse_rationals(gamma_prime)
        gd = _parse_rationals(gamma_dblprime)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad eigenvalue list: {exc}")
    try:
        if lie:
            image = correspond_lie(EigenMultiset.additive(gp), EigenMultiset.additive(gd))
        else:
            mp = (len(gp) - 1) // 2
            md = (len(gd) - 1) // 2
            image = correspond_mu(
                EigenMultiset.odd_orthogonal(gp),
                EigenMultiset.odd_orthogonal(gd),
                EllipticDatumMeta(mp, md),
            )
    except EndokitError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN_ERROR)
    rows = [{"image": ",".join(sc_str(x) for x in image.entries) or "-"}]
    _emit(rows, fmt, _out_path(out, f"correspond.{fmt}"))


@main.command()
@click.option("--kind", type=click.Choice(["i-meta", "i-standard", "c-nonstandard", "d"]), required=True)
@click.option("--n", type=int, default=None, help="ambient rank")
@click.option("--sizes", type=str, default=None, help="GL block sizes")
@click.option("--m", type=int, default=0, help="core rank")
@click.option("--s0", type=str, default=None, help="base datum m',m''")
@click.option("--signs", type=str, default=None, help="comma list of +/- per block")
@click.option("--ambient", type=click.Choice(["sp", "u"]), default="sp")
@click.option("--even-class", type=click.Choice(["split", "unram_nonsplit", "ramified"]), default="split")
@click.option("--dbl-side", type=str, default=None, help="comma list of block indices on the second side")
@click.option("--dim", type=int, default=None, help="ambient dimension (kind d)")
@click.option("--am", type=str, default=None, help="semicolon-separated rational vectors (kind d)")
@click.option("--al", type=str, default=None)
@click.option("--ar", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def coeff(kind, n, sizes, m, s0, signs, ambient, even_class, dbl_side, dim, am, al, ar, fmt, out):
    """Exact index and volume coefficients."""
    if kind in ("i-meta", "i-standard"):
        if not s0:
            raise click.UsageError("--s0 is required")
        mp, md = _parse_s0(s0)
    size_tuple = _parse_ints(sizes, "--sizes")
    side = frozenset(_parse_ints(dbl_side, "--dbl-side"))
    sign_tuple = _parse_signs(signs) if signs else None
    if sign_tuple is not None and len(sign_tuple) != len(size_tuple):
        raise click.UsageError(f"--signs has {len(sign_tuple)} entries for {len(size_tuple)} --sizes blocks")
    if kind == "d":
        if dim is None or am is None or al is None or ar is None:
            raise click.UsageError("--dim, --am, --al, --ar are required")
        vectors = [_parse_vectors(text, option) for text, option in ((am, "--am"), (al, "--al"), (ar, "--ar"))]
    try:
        if kind == "c-nonstandard":
            if n is None:
                raise click.UsageError("--n is required")
            datum = LeviDatum(size_tuple, m)
            if datum.rank != n:
                raise click.UsageError("sizes plus core must fill the rank")
            value = c_nonstandard_raw(build_triple(n), NSLeviPair(datum))
            rows = [{"value": sc_str(value)}]
        elif kind == "i-meta":
            datum = LeviDatum(size_tuple, m)
            base = EllipticDatumMeta(mp, md)
            sign_tuple = sign_tuple or tuple([1] * datum.block_count)
            value = i_meta(datum, base, SElement(datum, base, sign_tuple))
            rows = [{"value": sc_str(value)}]
        elif kind == "i-standard":
            if ambient == "sp":
                total = mp + md + sum(size_tuple)
                cfg = ArthurConfig(sp(total), size_tuple, sp_datum=SpEllipticDatum(mp, md, even_class))
            else:
                total = mp + md + 2 * sum(size_tuple)
                cfg = ArthurConfig(u(total), size_tuple, u_datum=UEllipticDatum(mp, md))
            value = i_standard(cfg, side)
            rows = [{"value": sc_str(value), "group": arthur_L_of_s(cfg, side).display()}]
        else:  # kind == "d"
            dsq = d_coefficient(*vectors, (1,) * dim)
            rows = [{"d_squared": sc_str(dsq.value)}]
    except (EndokitError, ValueError) as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN_ERROR)
    _emit(rows, fmt, _out_path(out, f"coeff.{fmt}"))


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(exists=True, dir_okay=False), default=None, help="scenario JSON file")
@click.option("--digest", default=None, help="scenario digest, as a report's scenario column writes it")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def descend_cmd(scenario_path: str | None, digest: str | None, fmt: str, out: str | None) -> None:
    """Descend one scenario, from a file or a digest, and print the records
    that a campaign's report holds for it."""
    if (scenario_path is None) == (digest is None):
        raise click.UsageError("give exactly one of --scenario and --digest")
    try:
        if digest is None:
            with open(scenario_path) as fh:
                sc = DescentScenario.from_json(fh.read())
        else:
            sc = DescentScenario.from_digest(digest)
        outcome = descend(sc)
    except (EndokitError, KeyError, ValueError) as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN_ERROR)
    records = check_scenario(sc)
    rows = [
        {
            "object": "groups",
            "detail": (
                f"matched Levi {outcome.r_group().display()} inside {outcome.g_eta().display()}; "
                f"endoscopic side {outcome.mexc().display()}"
            ),
        }
    ]
    # ``entry-count``, the last record, passes once the index set is built; when
    # it fails, no entry is shown and the law rows carry the error.
    if records[-1].status == "pass":
        entries = enumerate_E_natural(Ambient(outcome))
        rows.append({"object": "index-set", "detail": f"{len(entries)} surviving (twist, Levi) pairs"})
        for entry in entries:
            rows.append(
                {
                    "object": f"entry t={','.join('+' if x == 1 else '-' for x in entry.t) or '-'}",
                    "detail": (
                        f"instable {sc_str(entry.c_inst_rat)} stable {sc_str(entry.c_st_rat)} "
                        f"volume^2 {sc_str(entry.dsq.value)}"
                    ),
                }
            )
    rows += [{"object": r.check, "detail": json.dumps(r.to_dict(), sort_keys=True)} for r in records]
    _emit(rows, fmt, _out_path(out, f"descend.{fmt}"))
    if any(r.status == "fail" for r in records):
        sys.exit(EXIT_IDENTITY_FAILURE)


main.add_command(descend_cmd, name="descend")


@main.command()
@click.option("--max-rank", type=int, default=4, show_default=True)
@click.option("--orders", type=str, default="1,2,3,4,5,8", show_default=True)
@click.option("--q", "q_values", type=str, default="3,5,7", show_default=True)
@click.option("--suites", type=str, default=",".join(SUITES), show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="processes in the pool; every suite is a task, the descent suite one task per (n, sizes) group")
@click.option("--out", type=click.Path(), default=None, help="report path")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@click.option("--inject-fault", type=click.Choice(sorted(FAULTS)), default=None, hidden=True)
def verify(max_rank, orders, q_values, suites, seed, jobs, out, fmt, inject_fault) -> None:
    """Run a verification campaign and write a machine-readable report."""
    try:
        spec = CampaignSpec(
            max_rank=max_rank,
            orders=tuple(int(x) for x in orders.split(",") if x.strip()),
            q_values=tuple(int(x) for x in q_values.split(",") if x.strip()),
            suites=tuple(s.strip() for s in suites.split(",") if s.strip()),
            seed=seed,
            fault=inject_fault,
        )
        report = run_campaign(spec, jobs=jobs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    path = _out_path(out, f"verification-report.{fmt}")
    if path:
        with open(path, "w") as fh:
            report.write(fh, fmt)
        click.echo(f"report written to {path}")
    else:
        report.write(sys.stdout, fmt)
    failures = report.failures()
    summary = f"{len(report.records)} checks, {len(failures)} failures"
    click.echo(summary, err=True)
    if failures:
        sys.exit(EXIT_IDENTITY_FAILURE)


if __name__ == "__main__":
    main()
