"""Large worked-example constants and their verification.

Two fixture sets ship with the package: a 768-bit semiprime with both
of its nontrivial square roots of unity, and a 20000-bit semiprime with
one. Each lives in a directory of plain decimal text files (n.txt,
p.txt, q.txt, a*.txt); whitespace and line breaks inside the digits are
ignored, so the files can stay line-wrapped for readability.

A fixture argument means one thing: a packaged fixture name always
loads the packaged fixture, and anything else is a directory path.

Verification is pure arithmetic: the factors multiply to n, each base
squares to 1 mod n, and the gcd pairs reproduce the factors. No
primality testing happens here; at twenty thousand bits that would cost
minutes and prove nothing these checks do not already imply about the
fixture's internal consistency.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import DomainError
from .numtheory import parse_decimal

_REQUIRED = ("n.txt", "p.txt", "q.txt")


@dataclass(frozen=True)
class SupplementaryFixture:
    name: str
    n: int
    p: int
    q: int
    bases: tuple[int, ...]


def fixture_root() -> Path:
    """Directory holding the packaged fixture subdirectories."""
    return Path(__file__).parent / "fixtures"


def _read_decimal(path: Path) -> int:
    try:
        text = path.read_text()
    except OSError as exc:
        raise DomainError(f"cannot read fixture file {path}: {exc}") from exc
    return parse_decimal(text)


def load_fixture(name_or_path: Union[str, Path]) -> SupplementaryFixture:
    """Load one fixture: a packaged fixture by name, else the directory
    at the given path.

    Packaged names are checked first, so a directory of the same name in
    the working directory never shadows a packaged fixture. Base files
    are read in numeric order (a1, a2, ..., a10).
    """
    root = fixture_root()
    name = str(name_or_path)
    directory = root / name if name in os.listdir(root) else Path(name)
    if not directory.is_dir():
        raise DomainError(f"no packaged fixture named {name!r} under {root}"
                          f" and no directory {name!r}")
    name = directory.name
    for required in _REQUIRED:
        if not (directory / required).is_file():
            raise DomainError(f"fixture {name!r} is missing {required}")
    base_files = sorted(directory.glob("a*.txt"),
                        key=lambda f: (len(f.stem), f.stem))
    if not base_files:
        raise DomainError(f"fixture {name!r} has no base files (a*.txt)")
    return SupplementaryFixture(
        name=name,
        n=_read_decimal(directory / "n.txt"),
        p=_read_decimal(directory / "p.txt"),
        q=_read_decimal(directory / "q.txt"),
        bases=tuple(_read_decimal(f) for f in base_files),
    )


def verify_fixture(fixture: SupplementaryFixture) -> list[tuple[str, bool]]:
    """Arithmetic consistency checks, one (label, ok) pair per check."""
    n, p, q = fixture.n, fixture.p, fixture.q
    if n == 0:
        raise DomainError("modulus must be positive")
    checks: list[tuple[str, bool]] = [
        ("p * q == n", p * q == n),
        ("p != q and both > 2", p != q and p > 2 and q > 2),
    ]
    for i, a in enumerate(fixture.bases, start=1):
        tag = f"a{i}" if len(fixture.bases) > 1 else "a"
        checks.append((f"1 < {tag} < n - 1", 1 < a < n - 1))
        checks.append((f"{tag}**2 == 1 mod n", pow(a, 2, n) == 1))
        g_minus = math.gcd(a - 1, n)
        g_plus = math.gcd(a + 1, n)
        checks.append((
            f"gcd({tag} -/+ 1, n) reproduce p and q",
            {g_minus, g_plus} == {p, q},
        ))
    if len(fixture.bases) == 2:
        a1, a2 = fixture.bases
        checks.append(("a1 + a2 == n", a1 + a2 == n))
    return checks
