"""Workload definitions, reference bases and output checks for the ncgb benchmark.

Every problem is handed to the user-facing entry ``ncgb.cli.main`` as a
problem file from the bundled corpus; the benchmark never builds inputs
for the program itself.  Outputs are checked against the committed
reduced bases in ``reference/``: a reduced Groebner basis is unique for a
given ideal, ordering and truncation bound, so the pass check is an exact
match of the basis as a set of polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "ncgb" / "corpus"
REFERENCE = HERE / "reference"
MICRO_INPUTS = REFERENCE / "micro_braid4_t10.json"

STATS_FIELDS = ("gb", "rgb", "tot", "sel", "m", "f", "tail", "bk")


@dataclass(frozen=True)
class Job:
    """One problem of a workload: ``ncgb run`` or ``ncgb verify`` on a corpus file."""

    command: str          # "run" or "verify"
    problem: str          # corpus problem name
    trunc: int | None = None

    @property
    def label(self) -> str:
        return self.problem if self.trunc is None else f"{self.problem}_t{self.trunc}"

    @property
    def reference(self) -> Path:
        """The reduced basis the job's output must match (run) or that it checks (verify)."""
        name = self.label if self.command == "run" else self.problem
        return REFERENCE / f"{name}.prob"

    def argv(self) -> list[str]:
        problem = str(CORPUS / f"{self.problem}.prob")
        args = [self.command, problem] if self.command == "run" else \
            [self.command, str(self.reference), problem]
        if self.trunc is not None:
            args += ["--trunc", str(self.trunc)]
        return args


# Why each workload: see README.md.  Problem order is shuffled per pass by
# the workload seed.
WORKLOADS = {
    "triangle": [Job("run", f"g{k:02d}") for k in range(1, 14)],
    "braid": [Job("run", "braid4"), Job("run", "braid3", trunc=10)],
    "verify": [Job("verify", "g06"), Job("verify", "g12"),
               Job("verify", "braid4", trunc=10)],
}


def run_jobs():
    """Every distinct ``run`` job; each has a committed reference basis."""
    seen = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.command == "run":
                seen.setdefault(job.label, job)
    return list(seen.values())


# ---------------------------------------------------------------------------
# polynomial text, read independently of the program under test
# ---------------------------------------------------------------------------

_SPLIT = re.compile(r"\s*([+-])\s*")
_FACTOR = re.compile(r"(?:(\d+(?:/\d+)?)|([A-Za-z_]\w*)(?:\^(\d+))?)$")


def canonical(text: str) -> frozenset:
    """A polynomial in gen-line output syntax as a set of (word, coefficient) pairs.

    Accepts sums of products of rational numbers and powered variables,
    which is what ``ncgb run`` prints.  Raises ValueError on anything else.
    """
    parts = _SPLIT.split(text.strip())
    if parts[0] == "":
        parts = parts[1:]
    else:
        parts = ["+"] + parts
    if len(parts) % 2:
        raise ValueError(f"malformed polynomial {text!r}")
    terms = {}
    for sign, body in zip(parts[::2], parts[1::2]):
        coeff = Fraction(-1 if sign == "-" else 1)
        word = []
        for factor in body.split("*"):
            m = _FACTOR.match(factor.strip())
            if m is None:
                raise ValueError(f"malformed term {body!r} in {text!r}")
            number, name, power = m.groups()
            if number is not None:
                coeff *= Fraction(number)
            else:
                word.extend([name] * int(power or 1))
        key = tuple(word)
        acc = terms.get(key, 0) + coeff
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return frozenset(terms.items())


def gen_lines(lines) -> list[str]:
    return [line[4:] for line in lines if line.startswith("gen ")]


def load_reference(path: Path) -> frozenset:
    """The committed reduced basis as a set of canonical polynomials."""
    return frozenset(canonical(body) for body in gen_lines(path.read_text().splitlines()))


def parse_run_output(text: str):
    """Split ``ncgb run`` output into (reduced basis lines, statistics row dict)."""
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("# rgb "))
    rgb = []
    for line in lines[start + 1:]:
        if not line.startswith("gen "):
            break
        rgb.append(line[4:])
    header = next(k for k, line in enumerate(lines) if line.startswith("label\t"))
    row = dict(zip(lines[header].split("\t"), lines[header + 1].split("\t")))
    return rgb, {name: int(row[name]) for name in STATS_FIELDS}


def check_output(job: Job, code, text: str, reference: frozenset):
    """(ok, statistics row or None) for one finished job."""
    if job.command == "verify":
        return code == 0 and text.strip() == "ok", None
    if code != 0:
        return False, None
    try:
        rgb, row = parse_run_output(text)
        got = frozenset(canonical(body) for body in rgb)
    except (StopIteration, ValueError, KeyError, IndexError):
        return False, None
    return got == reference and len(rgb) == row["rgb"], row


def format_row(label: str, row: dict) -> str:
    rho = row["sel"] / row["tot"] if row["tot"] else 0.0
    cells = " ".join(f"{name}={row[name]}" for name in STATS_FIELDS)
    return f"{label} {cells} rho={rho:.4f}"
