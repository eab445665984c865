"""Flat sectioned text config files defining options and ring presentations.

Grammar (line oriented; ``#`` starts a comment, blank lines are ignored)::

    [options]
    format = text | json
    max-degree <check-name> = <integer from 0 to MAX_DEGREE>

    [presentation NAME]
    generators = name:degree name:degree ...
    relation = <polynomial text over the generator symbols>

Unknown section kinds and unknown keys are rejected rather than ignored, and
so is a name on ``[options]``, which scopes nothing, a second ``[options]``
section, a second presentation of one name and a repeated key: a later value
never silently replaces an earlier one.
Every degree bound given as input, here or by ``--max-degree``, is checked
by :func:`check_degree_bound` against the one limit ``MAX_DEGREE``, and
``hilbert`` checks each degree's basis width against ``MAX_BASIS_WIDTH`` and
the width of its dense elimination against ``MAX_DENSE_WIDTH``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .presented import RingPresentation, partition_series


class ConfigError(ValueError):
    pass


# The largest degree bound accepted as input: the work of rstar-structure
# and gamma-generation grows quickly beyond it (README gives their times).
MAX_DEGREE = 64

# The widest graded component ``hilbert`` builds: the number of generator
# monomials of one degree, the column count of its relation matrix.
# builtin:Rstar needs 3,843 at degree 64.
MAX_BASIS_WIDTH = 4096

# The widest remainder ``hilbert`` passes to the dense Smith elimination,
# what is left of a degree's relation matrix once its pivots on plus or
# minus its content are eliminated; the cost grows about as the cube of
# the width.  With generators a b c d of degree 1 and relations
# a*b - c*d, 2*a^2 - 3*b*c, degree 15 leaves 560 rows on 236 columns
# (0.6 s) and degree 16 680 rows on 268 columns (0.9 s; Python 3.11 on a
# shared 2-core machine).  builtin:Rstar leaves no remainder up to degree 64.
MAX_DENSE_WIDTH = 256


def check_degree_bound(bound: int, what: str) -> int:
    """Return ``bound`` if it lies in ``[0, MAX_DEGREE]``; else raise
    ConfigError naming ``what``."""
    if not 0 <= bound <= MAX_DEGREE:
        raise ConfigError(f"{what} must be between 0 and {MAX_DEGREE}, got {bound}")
    return bound


def check_basis_width(pres: RingPresentation, bound: int) -> None:
    """Raise ConfigError if some degree ``0..bound`` of ``pres`` has more
    than ``MAX_BASIS_WIDTH`` monomials; counted from the generator degrees
    alone, before any monomial is built."""
    widths = partition_series([d for _, d in pres.generators], bound)
    for d, width in enumerate(widths):
        if width > MAX_BASIS_WIDTH:
            raise ConfigError(f"degree {d} has {width} basis monomials, over the "
                              f"limit of {MAX_BASIS_WIDTH}; lower --max-degree")


@dataclass
class UserConfig:
    output_format: str | None = None
    max_degree_overrides: dict[str, int] = field(default_factory=dict)
    presentations: dict[str, RingPresentation] = field(default_factory=dict)


_SECTION_RE = re.compile(r"\[\s*(\w[\w-]*)(?:\s+(\S+))?\s*\]\Z")


class _SectionBuilder:
    def __init__(self, kind: str, name: str | None, lineno: int):
        self.kind = kind
        self.name = name
        self.lineno = lineno
        self.entries: list[tuple[str, str, int]] = []

    def add(self, key: str, value: str, lineno: int) -> None:
        self.entries.append((key, value, lineno))

    def single(self, key: str) -> str:
        found = [(v, lineno) for k, v, lineno in self.entries if k == key]
        if not found:
            raise ConfigError(f"section [{self.kind} {self.name}] is missing "
                              f"'{key}'")
        if len(found) > 1:
            raise ConfigError(f"line {found[1][1]}: duplicate '{key}' in "
                              f"[{self.kind} {self.name}]")
        return found[0][0]


def _finish_options(section: _SectionBuilder, cfg: UserConfig) -> None:
    seen: set[str] = set()
    for key, value, lineno in section.entries:
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate options key {key!r}")
        seen.add(key)
        tokens = key.split()
        if tokens == ["format"]:
            if value not in ("text", "json"):
                raise ConfigError(f"line {lineno}: format must be text or json")
            cfg.output_format = value
        elif len(tokens) == 2 and tokens[0] == "max-degree":
            try:
                bound = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: max-degree must be an integer") \
                    from None
            cfg.max_degree_overrides[tokens[1]] = check_degree_bound(
                bound, f"line {lineno}: max-degree")
        else:
            raise ConfigError(f"line {lineno}: unknown options key {key!r}")


_GENERATOR_RE = re.compile(r"(\w+):(\d+)\Z")


def _finish_presentation(section: _SectionBuilder, cfg: UserConfig) -> None:
    gen_text = section.single("generators")
    generators = []
    for token in gen_text.split():
        match = _GENERATOR_RE.match(token)
        if not match:
            raise ConfigError(f"presentation {section.name!r}: bad generator "
                              f"{token!r}, expected name:degree")
        try:
            degree = int(match.group(2))
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ConfigError(f"presentation {section.name!r}: degree of generator "
                              f"{match.group(1)!r} is too long") from None
        generators.append((match.group(1), degree))
    relations = []
    for key, value, lineno in section.entries:
        if key == "generators":
            continue
        if key != "relation":
            raise ConfigError(f"line {lineno}: unknown presentation key {key!r}")
        relations.append(value)
    try:
        pres = RingPresentation.from_strings(generators, relations)
    except ValueError as exc:
        raise ConfigError(f"presentation {section.name!r}: {exc}") from None
    cfg.presentations[section.name] = pres


_FINISHERS = {
    "options": _finish_options,
    "presentation": _finish_presentation,
}


def parse_config(text: str) -> UserConfig:
    cfg = UserConfig()
    current: _SectionBuilder | None = None
    headers: set[tuple[str, str | None]] = set()

    def finish(section: _SectionBuilder | None) -> None:
        if section is None:
            return
        if section.kind != "options" and section.name is None:
            raise ConfigError(f"line {section.lineno}: section "
                              f"[{section.kind}] needs a name")
        _FINISHERS[section.kind](section, cfg)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            match = _SECTION_RE.match(line)
            if not match:
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            kind, name = match.group(1), match.group(2)
            if kind not in _FINISHERS:
                raise ConfigError(f"line {lineno}: unknown section kind {kind!r}")
            if kind == "options" and name is not None:
                raise ConfigError(f"line {lineno}: section [options] takes no "
                                  f"name, got {name!r}")
            # One [options] section and one presentation per name.
            header = (kind, name)
            if header in headers:
                shown = " ".join(filter(None, header))
                raise ConfigError(f"line {lineno}: duplicate section [{shown}]")
            headers.add(header)
            finish(current)
            current = _SectionBuilder(kind, name, lineno)
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        current.add(" ".join(key.split()), value.strip(), lineno)
    finish(current)
    return cfg


def load_config(path: str) -> UserConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)
