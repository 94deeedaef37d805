"""The CLI contract as one table of calls, each with its exit code, an
expected piece of output and a time limit.

    python ci/cli_contract.py [COMMAND ...]

COMMAND starts the CLI; it defaults to `python -m hecke.cli`, and with
the package installed `hecke` runs the console script instead.  Each row
is run in a fresh process.  A row passes when the call ends within its
limit, exits with its code, prints its expected text (on stdout after
exit 0, on stderr otherwise) and prints no traceback.  The exit status
is the number of failed rows.  Standard library only, so that it runs
with the package installed without extras.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import NamedTuple


class Row(NamedTuple):
    name: str
    argv: tuple
    env: dict
    code: int
    out: str
    limit: float


# p = 10^14 + 31 is inert in Q(i), so 1/p^3 has denominator norm p^6 there
P3 = "1000000000000930000000000288300000000029791"
# psi_12 passes Miller-Rabin to the bases 2..37 but not 41; psi_13 passes
# all 13 witnesses, so its primality is not proven
PSI12 = "318665857834031151167461"
PSI13 = "3317044064679887385961981"
# (10^14 + 31)(10^14 + 67): Pollard rho needs about 10^7 steps to split it
PQ14 = "10000000000009800000000002077"

ROWS = (
    # the README calls exit 0
    Row("readme_field", ("field", "--field", "d1"), {}, 0,
        '"units": ["1", "-1", "w", "-w"]', 20),
    Row("readme_galois_compare",
        ("galois-compare", "--field", "d1", "--level", "5", "--w", "1",
         "--j", "3", "--r", "(1)/(5)"), {}, 0, '"equal": false', 20),
    Row("readme_zeta", ("zeta", "--field", "d1", "--beta", "2"), {}, 0,
        '"value": 1.5067030071588792', 20),
    Row("readme_kms_extreme",
        ("kms", "--field", "d1", "--beta", "2", "--extreme", "--level",
         "1+1*w", "--w", "1", "--r", "(1)/(1+1*w)"), {}, 0,
        '"level": "1 - w"', 20),
    Row("readme_verify", ("verify", "--field", "q", "--level", "3"), {}, 0,
        '"checked": 169, "failures": []', 20),
    # ground states are capped, and inert primes factor fast
    Row("ground_state_cap",
        ("kms", "--field", "q", "--beta", "inf", "--extreme", "--level",
         "30030", "--w", "1", "--r", "(1)/(30030)"), {}, 2, "Error:", 20),
    Row("inert_prime",
        ("kms", "--field", "d1", "--beta", "2", "--r",
         "(1)/(1000000000000000003)"), {}, 0, '"exact":', 20),
    # a finite-beta extreme state at level norm 10^6 is fast; level
    # 1000003 is just over the default cap of 10^6
    Row("extreme_level_1000003",
        ("kms", "--field", "q", "--beta", "2", "--extreme", "--level",
         "1000003", "--w", "1", "--r", "(1)/(1000003)"),
        {"HECKE_LEVEL_MAX": "2000000"}, 0, '"numeric": [', 20),
    # a finite-beta extreme state at the default bound cap is fast: the
    # sector walk lists the ideals of Q(sqrt(-3)) up to norm 10^6
    Row("extreme_bound_cap",
        ("kms", "--field", "d3", "--beta", "2", "--extreme", "--level",
         "1000", "--w", "1", "--r", "(1)/(1000)", "--bound", "1000000"),
        {}, 0, '"numeric": [', 20),
    # the primes above a large split prime are found fast
    Row("split_prime",
        ("kms", "--field", "d1", "--beta", "2", "--r",
         "(1)/(1000000000000000009)"), {}, 0, '"exact":', 20),
    # Phi_m is built as a Moebius product of binomials, so a ground state
    # at a level with many primes is fast
    Row("ground_state_9240",
        ("kms", "--field", "q", "--beta", "inf", "--extreme", "--level",
         "9240", "--w", "1", "--r", "(1)/(9240)"), {}, 0, '"cyclotomic":',
        20),
    # ground-state values are memoized per distinct input, so regularity
    # at level norm 149 builds 22,052 values from 38 normal forms
    Row("regularity_149",
        ("regularity", "--field", "d1", "--level", "10+7*w"), {}, 0,
        '"all_ok": true', 10),
    # a strong pseudoprime is factored and an unproven prime refused
    Row("psi12_factored",
        ("kms", "--field", "q", "--beta", "2", "--r", f"(1)/({PSI12})"), {},
        0, f'"exact": "1/{PSI12}"', 20),
    Row("psi13_refused",
        ("kms", "--field", "q", "--beta", "2", "--r", f"(1)/({PSI13})"), {},
        1, "Error:", 20),
    # a cube of a large prime splits by its integer cube root
    Row("prime_cube_d1",
        ("kms", "--field", "d1", "--beta", "2", "--r", f"(1)/({P3})"), {}, 0,
        '"exact":', 10),
    Row("prime_cube_q",
        ("kms", "--field", "q", "--beta", "2", "--r", f"(1)/({P3})"), {}, 0,
        '"exact": "-1/10000000000015500000000009610000000002979100000000461'
        '760500000028629151"', 10),
    # a product of two large primes exceeds the budget of Pollard rho
    Row("rho_budget",
        ("kms", "--field", "q", "--beta", "2", "--r", f"(1)/({PQ14})"), {}, 1,
        f"Error: could not factor {PQ14} within", 10),
)


def run_row(row: Row, command: list, env: dict | None = None) -> str | None:
    """Run one row; None when it passes, else what went wrong."""
    full = dict(os.environ if env is None else env, **row.env)
    try:
        res = subprocess.run([*command, *row.argv], env=full,
                             capture_output=True, text=True,
                             timeout=row.limit)
    except subprocess.TimeoutExpired:
        return f"no exit within {row.limit} s"
    text = res.stdout if row.code == 0 else res.stderr
    if res.returncode != row.code:
        return (f"exit {res.returncode}, want {row.code}: "
                f"{res.stderr.strip()[-300:]}")
    if row.out not in text:
        return f"{row.out!r} not in output {text.strip()[:300]!r}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    return None


def main(argv: list) -> int:
    command = argv or [sys.executable, "-m", "hecke.cli"]
    failed = 0
    for row in ROWS:
        start = time.perf_counter()
        why = run_row(row, command)
        seconds = time.perf_counter() - start
        if why is None:
            print(f"ok {row.name} ({seconds:.2f} s)", file=sys.stderr)
        else:
            failed += 1
            print(f"FAIL {row.name}: {why}", file=sys.stderr)
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
