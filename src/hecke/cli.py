"""Command-line surface: batch access to the algebra, states, and checks.

Every subcommand prints one JSON object with sorted keys, so identical
invocations produce byte-identical output.  Exact rationals are emitted
as strings ("-1/8") next to float renderings; cyclotomic values carry
their conductor and coefficient vector.  Exit codes: 0 on success, 1 when
a verification-style command finds a failure (or a domain precondition
is violated), 2 on usage errors.

Every command takes --config FILE, a file of key=value lines keyed by
option names (field_tag, beta, r_text, level, ...).  The file becomes
the command's click default map: each value is converted and checked by
its option's type like the flag (exit 2 when malformed), a required
option may come from the file, and explicit flags win.  The environment
variable HECKE_LEVEL_MAX caps the level, level norm or series bound of
every enumeration-heavy command (exit 2 above the cap).  Without it each
of them has a default cap, set below from measured cost: verify --level
6; finite-beta kms --extreme 10**6 on the larger of --bound and the
level norm; kms --extreme --beta inf and galois-compare level norm
10**4; regularity level norm 200.
"""
from __future__ import annotations

import cmath
import json
import os
import re
from fractions import Fraction

import click

from .cyclotomic import CycloNum
from .hecke_algebra import (HeckeElement, adjoint, identity, mu, mul_hecke,
                            theta)
from .kms import (KmsParams, phi_extreme_beta, phi_extreme_infty,
                  phi_symmetric, zeta_k)
from .numberfield import (FieldCtx, canonical_generator, ctx_from_tag,
                          format_element, parse_element)
from .oracle import verify_equivalence
from .pairing import CharacterPoint, pair_exponent
from .symmetry import SymmetryElem, compare_actions, regularity_check
from .torsion import TorsionClass, torsion_class

__all__ = ["main"]


# -- plumbing ---------------------------------------------------------------

def _emit(data: dict) -> None:
    click.echo(json.dumps(data, sort_keys=True, separators=(", ", ": ")))


def _field(tag: str) -> FieldCtx:
    try:
        return ctx_from_tag(tag)
    except ValueError:
        raise click.UsageError(f"unknown field tag {tag!r}; use Q or d<k> "
                               "with k in 1,2,3,7,11,19,43,67,163")


def _elem(ctx: FieldCtx, text: str):
    try:
        return parse_element(text, ctx)
    except ValueError as exc:
        raise click.UsageError(f"bad element {text!r}: {exc}")


def _torsion(ctx: FieldCtx, text: str) -> TorsionClass:
    s = text.strip()
    m = re.fullmatch(r"\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)", s)
    try:
        if m:
            num = parse_element(m.group("num"), ctx)
            den = parse_element(m.group("den"), ctx)
            if den.is_zero:
                raise ValueError("zero denominator")
            return torsion_class(num / den)
        return torsion_class(parse_element(s, ctx))
    except ValueError as exc:
        raise click.UsageError(f"bad torsion class {text!r}: {exc}")


def _cyclo_json(v: CycloNum) -> dict:
    z = v.numeric()
    return {
        "cyclotomic": {"m": v.m, "coeffs": [str(c) for c in v.coeffs]},
        "numeric": [z.real, z.imag],
    }


def _read_config(clicktx: click.Context, _param, path: str | None) -> None:
    """Make a key=value file the command's default map, so each value
    passes through its option's type and explicit flags keep priority."""
    if path is None:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path!r}: {exc}")
    names = {p.name for p in clicktx.command.params
             if isinstance(p, click.Option) and p.expose_value}
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {line!r} is not key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in names:
            raise click.UsageError(f"unknown config key {key!r}")
        values[key] = val
    clicktx.default_map = values


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_read_config,
    help="key=value file of option defaults; explicit flags win")


def _level_guard(norm: int, default: int) -> None:
    """Exit 2 when norm exceeds HECKE_LEVEL_MAX or, with that unset, the
    command's default cap.  Each default rests on runs on a 2-core VM."""
    cap = os.environ.get("HECKE_LEVEL_MAX", default)
    try:
        capval = int(cap)
    except ValueError:
        raise click.UsageError(f"HECKE_LEVEL_MAX={cap!r} is not an integer")
    if norm > capval:
        raise click.UsageError(
            f"requested enumeration size {norm} exceeds the cap {capval}; "
            "set HECKE_LEVEL_MAX to change it")


_FACTOR_RE = re.compile(
    r"(?P<name>theta|mustar|mu\*|mu|id)\s*(?:\(\s*(?P<arg>[^()]*)\s*\))?")


def _parse_algebra(ctx: FieldCtx, text: str) -> HeckeElement:
    """A product of generators: theta(r), mu(a), mustar(a) (or mu*(a)),
    id; factors separated by whitespace or '*'."""
    out = identity(ctx)
    pos = 0
    s = text.strip()
    seen = False
    while pos < len(s):
        if s[pos] in " \t*":
            pos += 1
            continue
        m = _FACTOR_RE.match(s, pos)
        if not m:
            raise click.UsageError(
                f"cannot read generator at {s[pos:]!r}; expected "
                "theta(r), mu(a), mustar(a) or id")
        name, arg = m.group("name"), m.group("arg")
        if name == "id":
            fac = identity(ctx)
        elif arg is None:
            raise click.UsageError(f"{name} needs an argument")
        elif name == "theta":
            fac = theta(_elem(ctx, arg))
        elif name == "mu":
            fac = mu(_elem(ctx, arg))
        else:
            fac = adjoint(mu(_elem(ctx, arg)))
        out = mul_hecke(out, fac)
        pos = m.end()
        seen = True
    if not seen:
        raise click.UsageError(f"empty algebra expression {text!r}")
    return out


class _Group(click.Group):
    """Every ValueError a command raises, a domain failure of the
    library, becomes an exit-1 error message."""

    def invoke(self, clicktx: click.Context):
        try:
            return super().invoke(clicktx)
        except ValueError as exc:
            raise click.ClickException(str(exc))


# -- commands ---------------------------------------------------------------

@click.group(cls=_Group)
def main() -> None:
    """Exact computations in the Hecke algebra of an ax+b group over a
    class-number-one imaginary quadratic field or over the rationals."""


@main.command("field")
@click.option("--field", "field_tag", default="Q", show_default=True)
@_config_option
def field_cmd(field_tag: str) -> None:
    """Describe the chosen base field and its integer ring."""
    ctx = _field(field_tag)
    _emit({
        "field": ctx.tag,
        "rational": ctx.is_rational,
        "discriminant": ctx.discriminant,
        "omega": format_element(ctx.omega),
        "delta": format_element(ctx.delta),
        "units": [format_element(u) for u in ctx.units],
    })


@main.command("mul")
@click.option("--field", "field_tag", default="Q", show_default=True)
@_config_option
@click.argument("left")
@click.argument("right")
def mul_cmd(field_tag: str, left: str, right: str) -> None:
    """Multiply two products of generators and print the expansion."""
    ctx = _field(field_tag)
    product = mul_hecke(_parse_algebra(ctx, left), _parse_algebra(ctx, right))
    terms = []
    for mono, coeff in sorted(product.terms.items(),
                              key=lambda kv: kv[0].sort_key()):
        terms.append({
            "a": format_element(mono.a),
            "r": format_element(mono.r.rep),
            "b": format_element(mono.b),
            "coeff": {"exact": str(coeff), "numeric": float(coeff)},
        })
    _emit({"field": ctx.tag, "terms": terms})


@main.command("kms")
@click.option("--field", "field_tag", default="Q", show_default=True)
@click.option("--beta", default="2", show_default=True,
              help="inverse temperature; integer, float, or inf")
@click.option("--r", "r_text", required=True, help="torsion class, e.g. "
              '"(1)/(5)"')
@click.option("--extreme", is_flag=True, default=False,
              help="evaluate the extreme state at a character point")
@click.option("--level", default=None, help="character level (extreme)")
@click.option("--w", "w_text", default="1", show_default=True,
              help="character datum (extreme)")
@click.option("--bound", default=100000, show_default=True,
              help="series cutoff for finite-beta extreme states")
@_config_option
def kms_cmd(field_tag: str, beta: str, r_text: str, extreme: bool,
            level: str | None, w_text: str, bound: int) -> None:
    """Evaluate an equilibrium state on theta(r)."""
    ctx = _field(field_tag)
    r = _torsion(ctx, r_text)
    beta_text = beta.strip().lower()
    try:
        bval = int(beta_text) if beta_text.isdigit() else float(beta_text)
    except ValueError:
        raise click.UsageError(f"--beta {beta_text!r} is not a number")
    if not extreme:
        if beta_text in ("inf", "infinity"):
            raise click.UsageError(
                "beta=inf needs --extreme (ground states live at "
                "character points)")
        val = phi_symmetric(r, bval)
        if isinstance(val, Fraction):
            _emit({"beta": beta_text, "exact": str(val),
                   "field": ctx.tag, "numeric": float(val)})
        else:
            _emit({"beta": beta_text, "field": ctx.tag,
                   "numeric": float(val)})
        return
    if level is None:
        raise click.UsageError("--extreme needs --level")
    chi = CharacterPoint.make(ctx, _elem(ctx, level), _elem(ctx, w_text))
    if beta_text in ("inf", "infinity"):
        # dense cyclotomic reduction at a conductor up to N(c) sets the
        # cost; default cap: Q level 9240 takes 0.2 s, 10010 1.4 s and
        # 30030 13 s, d1 level 1000 (norm 10**6) 0.11 s
        _level_guard(chi.level_norm, 10 ** 4)
        out = _cyclo_json(phi_extreme_infty(r, chi))
        out.update({"beta": "inf", "field": ctx.tag,
                    "level": format_element(chi.c),
                    "w": format_element(chi.w)})
        _emit(out)
        return
    kp = KmsParams(beta=float(beta_text), bound=bound)
    # the ideal arrays grow linearly with the bound, the residue sums
    # and phases with N(c), and they set the peak, not the prime table;
    # default cap: bound and level norm 10**6 take 0.7-1.0 s and 116 MB
    # in d1, 0.8-1.0 s and 115 MB in d3
    _level_guard(max(kp.bound, chi.level_norm), 10 ** 6)
    val, err = phi_extreme_beta(r, chi, kp)
    _emit({"beta": beta_text, "bound": kp.bound, "err": err,
           "field": ctx.tag, "level": format_element(chi.c),
           "numeric": [val.real, val.imag],
           "w": format_element(chi.w)})


@main.command("zeta")
@click.option("--field", "field_tag", default="Q", show_default=True)
@click.option("--beta", default=2.0, show_default=True, type=float)
@click.option("--tol", default=1e-7, show_default=True, type=float)
@_config_option
def zeta_cmd(field_tag: str, beta: float, tol: float) -> None:
    """Partition function value with a certified error bound."""
    ctx = _field(field_tag)
    val, err = zeta_k(ctx, beta, tol=tol)
    _emit({"beta": beta, "err": err, "field": ctx.tag, "value": val})


@main.command("pair")
@click.option("--field", "field_tag", default="Q", show_default=True)
@click.option("--level", required=True)
@click.option("--w", "w_text", default="1", show_default=True)
@click.option("--r", "r_text", required=True)
@_config_option
def pair_cmd(field_tag: str, level: str, w_text: str, r_text: str) -> None:
    """Pair a torsion class with a character point."""
    ctx = _field(field_tag)
    chi = CharacterPoint.make(ctx, _elem(ctx, level), _elem(ctx, w_text))
    e = pair_exponent(_torsion(ctx, r_text), chi)
    z = cmath.exp(2j * cmath.pi * float(e))
    _emit({"exponent": str(e), "field": ctx.tag,
           "numeric": [z.real, z.imag], "order": e.denominator})


@main.command("verify")
@click.option("--field", "field_tag", default="Q", show_default=True)
# no monomial has slot norm below 1: a lower bound would check nothing
@click.option("--level", default=4, show_default=True,
              type=click.IntRange(min=1),
              help="norm bound for the monomial sweep")
@_config_option
def verify_cmd(field_tag: str, level: int) -> None:
    """Sweep all small monomial products against the coset oracle."""
    ctx = _field(field_tag)
    # default cap: d11 at 6 takes 15 s and 134 MB; Q at 8 27 s, d7 at 8 40 s
    _level_guard(level, 6)
    report = verify_equivalence(ctx, level)
    _emit({
        "checked": report["checked"],
        "failures": report["failures"],
        "field": ctx.tag,
        "level": level,
        "monomials": report["monomials"],
    })
    if report["failed"]:
        raise SystemExit(1)


@main.command("galois-compare")
@click.option("--field", "field_tag", default="Q", show_default=True)
@click.option("--level", required=True)
@click.option("--w", "w_text", default="1", show_default=True)
@click.option("--j", "j_text", required=True)
@click.option("--r", "r_text", required=True)
@_config_option
def galois_cmd(field_tag: str, level: str, w_text: str, j_text: str,
               r_text: str) -> None:
    """Geometric versus arithmetic action on one ground-state value."""
    ctx = _field(field_tag)
    lvl = _elem(ctx, level)
    chi = CharacterPoint.make(ctx, lvl, _elem(ctx, w_text))
    # dense cyclotomic reduction at a conductor up to N(c) sets the cost;
    # default cap: Q level 9240 takes 0.5 s, 10010 2.8 s and 30030 40 s,
    # d1 level 1000 (norm 10**6) 0.12 s
    _level_guard(chi.level_norm, 10 ** 4)
    g = SymmetryElem.make(ctx, lvl, _elem(ctx, j_text))
    rep = compare_actions(_torsion(ctx, r_text), chi, g)
    _emit({
        "arithmetic": _cyclo_json(rep["arithmetic_value"]),
        "equal": rep["equal"],
        "field": ctx.tag,
        "geometric": _cyclo_json(rep["geometric_value"]),
        "j": format_element(g.j),
        "level": format_element(chi.c),
        "w": format_element(chi.w),
    })


@main.command("regularity")
@click.option("--field", "field_tag", default="Q", show_default=True)
@click.option("--level", required=True)
@_config_option
def regularity_cmd(field_tag: str, level: str) -> None:
    """Check that the symmetry group permutes the level's ground states
    simply transitively."""
    ctx = _field(field_tag)
    lvl = canonical_generator(_elem(ctx, level))
    # default cap: level norm 149 takes 0.5 s and 20 MB, 449 takes 2.3 s
    # and 32 MB, each distinct ground-state value reduced once
    _level_guard(int(lvl.norm()), 200)
    rep = regularity_check(lvl)
    _emit({**rep, "level": format_element(rep["level"])})
    if not rep["all_ok"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
