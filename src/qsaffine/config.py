"""System definitions from small key:value config files.

Grammar (UTF-8 text, one entry per line, ``#`` starts a comment):

    label: cantor-max
    q: [1/5, 2/5, 1/5, 1/5]
    g: [2/5, 4/5, 2/5, -3/5]

``q`` and ``g`` are bracketed arrays of the same length (>= 2) whose entries
are exact rationals (``2/5``) or decimals (``-0.28``).  Rationals are parsed
to doubles at read time; the original spellings are kept for echoing in
reports.  ``label`` is optional and defaults to the file stem; it may hold
a tab but no other C0 control character, nor U+FFFE or U+FFFF, since XML
(the SVG titles) cannot hold them.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .codec import Frozen
from .errors import ValidationError
from .selfaffine import SelfAffineSystem


def _label_forbidden(c: str) -> bool:
    """Whether XML cannot hold ``c``: a C0 control but tab, a surrogate, U+FFFE or U+FFFF."""
    n = ord(c)
    return (n < 0x20 and n != 0x09) or 0xD800 <= n <= 0xDFFF or n in (0xFFFE, 0xFFFF)


class SystemConfig(Frozen):
    """The spellings of q and g, parsed once to the doubles ``q`` and ``g``.

    Construction parses every token (q first, then g) and then checks the
    lengths and the label, so a bad token raises ``ValidationError`` here,
    not at ``system()``; ``system()`` parses nothing.  Equality, hash and
    repr read the spellings and the label, not the parsed doubles.
    """

    _fields = ("q_text", "g_text", "label")

    def __init__(self, q_text: tuple[str, ...], g_text: tuple[str, ...], label: str) -> None:
        q = tuple(parse_number(t) for t in q_text)
        g = tuple(parse_number(t) for t in g_text)
        if len(q_text) != len(g_text):
            raise ValidationError(
                f"q and g must have equal length; got {len(q_text)} and {len(g_text)}"
            )
        if len(q_text) < 2:
            raise ValidationError("at least 2 entries required in q and g")
        for c in label:
            if _label_forbidden(c):
                raise ValidationError(f"label must not contain the character U+{ord(c):04X}")
        self.__dict__.update(q_text=q_text, g_text=g_text, label=label, q=q, g=g)

    def system(self) -> SelfAffineSystem:
        return SelfAffineSystem.from_values(self.q, self.g)


def parse_number(token: str) -> float:
    """Parse ``2/5``, ``0.4``, ``-0.28`` or ``1.5e-3`` to a double.

    ``Fraction`` builds ``10**exponent`` in full, so an exponent whose size
    exceeds the token's length plus 400 is clamped to that first.  Past the
    cap every mantissa the token spells is 0, above 1e400 (an overflow) or
    below 1e-400 (a zero of its sign), so the clamp keeps the result.
    """
    text = token.strip()
    try:
        if "e" in text or "E" in text:
            mantissa, _, exponent = text.replace("E", "e").rpartition("e")
            cap = len(text) + 400
            if exponent == exponent.strip() and abs(int(exponent)) > cap:
                text = f"{mantissa}e{cap if int(exponent) > 0 else -cap}"
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse number {token!r}") from exc
    except OverflowError as exc:
        raise ValidationError(f"number {token!r} overflows a double") from exc


def _parse_array(value: str, key: str) -> tuple[str, ...]:
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ValidationError(f"{key} must be a bracketed array, got {value!r}")
    body = value[1:-1].strip()
    if not body:
        raise ValidationError(f"{key} must not be empty")
    return tuple(tok.strip() for tok in body.split(","))


def parse_config_text(text: str, default_label: str = "system") -> SystemConfig:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValidationError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        if key in entries:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    unknown = set(entries) - {"q", "g", "label"}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "q" not in entries or "g" not in entries:
        raise ValidationError("config must define both q and g")
    return SystemConfig(
        q_text=_parse_array(entries["q"], "q"),
        g_text=_parse_array(entries["g"], "g"),
        label=entries.get("label", default_label),
    )


def load_config(path: str | Path) -> SystemConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_config_text(text, default_label=path.stem)
