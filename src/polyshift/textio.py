"""Textual input and output: the generator-list grammar, family-spec
documents, and stable JSON serialization.

Generator lists look like ``[x2*x4, x1*x2, x1*x3] n=4`` (whitespace is
insignificant; ``n`` defaults to the largest variable index seen; ``1``
denotes the unit monomial).  Family documents are a small JSON dialect in
which keys and simple word values may appear unquoted, e.g.
``{type:lp, alpha:[1,3], beta:[4,5]}``.  Parsing and printing round-trip on
canonical forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .errors import ParseError
from .families import (
    BorelSpec,
    ExplicitSpec,
    FamilySpec,
    LPSpec,
    PLPSpec,
    PowerSpec,
    ProductSpec,
    TransversalSpec,
    VeroneseSpec,
    realize,
)
from .monomials import Monomial, MonomialIdeal, VariableOrder, check_variable_count


# ---------------------------------------------------------------------------
# low-level scanning
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        """A ParseError at ``pos``, by default the current position."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        return ParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def try_consume(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_*^"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a word")
        return self.text[start:self.pos]

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# monomials and generator lists
# ---------------------------------------------------------------------------


def _scan_factor(sc: _Scanner, exps: dict[int, int]) -> None:
    sc.skip_ws()
    if sc.pos < len(sc.text) and sc.text[sc.pos] in "xX":
        sc.pos += 1
    else:
        raise sc.error("expected a variable factor like x3 or x3^2")
    idx = sc.integer()
    if idx < 1:
        raise sc.error(f"variable index must be positive, got {idx}")
    power = 1
    if sc.try_consume("^"):
        power = sc.integer()
        if power < 0:
            raise sc.error("exponents must be nonnegative")
    exps[idx] = exps.get(idx, 0) + power


def _scan_monomial(sc: _Scanner) -> dict[int, int]:
    sc.skip_ws()
    if sc.pos < len(sc.text) and sc.text[sc.pos] == "1":
        sc.pos += 1
        return {}
    exps: dict[int, int] = {}
    _scan_factor(sc, exps)
    while sc.try_consume("*"):
        _scan_factor(sc, exps)
    return exps


def parse_monomial(text: str, n: Optional[int] = None) -> Monomial:
    """Parse a single monomial like ``x1*x3^2``; ``1`` is the unit."""
    sc = _Scanner(text)
    exps = _scan_monomial(sc)
    if not sc.at_end():
        raise sc.error("trailing input after monomial")
    width = max(exps) if exps else 0
    if n is None:
        n = width
    elif width > n:
        raise sc.error(f"variable index {width} exceeds n={n}")
    return _monomial(exps, check_variable_count(n))


def _monomial(exps: dict[int, int], n: int) -> Monomial:
    """The monomial in n variables with the scanned {index: exponent}."""
    vec = [0] * n
    for i, e in exps.items():
        vec[i - 1] = e
    return Monomial(tuple(vec))


def _parse_generator_list(
    sc: _Scanner,
) -> tuple[list[dict[int, int]], Optional[int], Optional[int]]:
    """The monomials, the declared n and where ``n=`` starts (None, None
    when n is not declared)."""
    sc.expect("[")
    monomials: list[dict[int, int]] = []
    if not sc.try_consume("]"):
        monomials.append(_scan_monomial(sc))
        while sc.try_consume(","):
            monomials.append(_scan_monomial(sc))
        sc.expect("]")
    declared = declared_at = None
    if not sc.at_end():
        declared_at = sc.pos
        if sc.text[sc.pos] in "nN":
            sc.pos += 1
            sc.expect("=")
            declared = sc.integer()
        else:
            raise sc.error("expected 'n=<int>' after the generator list")
        if not sc.at_end():
            raise sc.error("trailing input after n=<int>")
    return monomials, declared, declared_at


# ---------------------------------------------------------------------------
# family-spec documents (JSON with optional bare words)
# ---------------------------------------------------------------------------


# objects and lists nest at most this deep in a family document
NESTING_LIMIT = 100


def _scan_value(sc: _Scanner, depth: int = 0) -> Any:
    ch = sc.peek()
    if (ch == "{" or ch == "[") and depth == NESTING_LIMIT:
        raise sc.error(f"family document nests deeper than {NESTING_LIMIT} levels")
    if ch == "{":
        sc.pos += 1
        obj: dict[str, Any] = {}
        if sc.try_consume("}"):
            return obj
        while True:
            sc.skip_ws()
            if sc.peek() == '"':
                key = _scan_string(sc)
            else:
                key = sc.word()
            sc.expect(":")
            obj[key] = _scan_value(sc, depth + 1)
            if sc.try_consume("}"):
                return obj
            sc.expect(",")
    if ch == "[":
        sc.pos += 1
        items: list[Any] = []
        if sc.try_consume("]"):
            return items
        while True:
            items.append(_scan_value(sc, depth + 1))
            if sc.try_consume("]"):
                return items
            sc.expect(",")
    if ch == '"':
        return _scan_string(sc)
    if ch.isdigit() or ch == "-":
        return sc.integer()
    return sc.word()


def _scan_string(sc: _Scanner) -> str:
    sc.expect('"')
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos] != '"':
        sc.pos += 1
    if sc.pos >= len(sc.text):
        raise sc.error("unterminated string")
    value = sc.text[start:sc.pos]
    sc.pos += 1
    return value


def _intlist(doc: Any, field: str, sc: _Scanner) -> tuple[int, ...]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise sc.error(f"field {field!r} must be a list of integers")
    return tuple(value)


def _int(doc: Any, field: str, sc: _Scanner, default: Optional[int] = None) -> int:
    value = doc.get(field, default)
    if not isinstance(value, int):
        raise sc.error(f"field {field!r} must be an integer")
    return value


def _generator(value: Any, sc: _Scanner) -> Monomial:
    """A generator of a family document, its errors placed like a field's."""
    try:
        return parse_monomial(str(value))
    except ParseError as exc:
        raise sc.error(f"bad generator {str(value)!r}: {exc.reason}") from None


def spec_from_doc(doc: Any, sc: Optional[_Scanner] = None) -> FamilySpec:
    """Build a family spec from a parsed document."""
    sc = sc or _Scanner("")
    if not isinstance(doc, dict) or "type" not in doc:
        raise sc.error("family document must be an object with a 'type' field")
    tag = doc["type"]
    if tag == "veronese":
        bounds = _intlist(doc, "b", sc)
        check_variable_count(len(bounds))
        return VeroneseSpec(bounds, _int(doc, "d", sc))
    if tag == "borel":
        raw = doc.get("gens")
        if not isinstance(raw, list) or not raw:
            raise sc.error("borel document needs a nonempty 'gens' list")
        parsed = [_generator(g, sc) for g in raw]
        n = _int(doc, "n", sc, max(m.n for m in parsed))
        check_variable_count(n)
        gens = tuple(
            Monomial(m.exponents + (0,) * (n - m.n)) for m in parsed
        )
        return BorelSpec(gens, n)
    if tag == "plp":
        vectors = [_intlist(doc, key, sc) for key in ("a", "b", "alpha", "beta")]
        check_variable_count(max(map(len, vectors)))
        return PLPSpec(*vectors)
    if tag == "lp":
        alpha = _intlist(doc, "alpha", sc)
        beta = _intlist(doc, "beta", sc)
        n = _int(doc, "n", sc, max(beta, default=0))
        check_variable_count(n)
        return LPSpec(alpha, beta, n)
    if tag == "transversal":
        raw = doc.get("sets")
        if not isinstance(raw, list) or not raw or not all(
            isinstance(A, list) and all(isinstance(i, int) for i in A) for A in raw
        ):
            raise sc.error("transversal document needs a nonempty 'sets' list of integer lists")
        sets = tuple(frozenset(A) for A in raw)
        n = _int(doc, "n", sc, max((i for A in sets for i in A), default=0))
        check_variable_count(n)
        return TransversalSpec(sets, n)
    if tag == "product":
        factors = doc.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise sc.error("product document needs at least two factors")
        return ProductSpec(tuple(spec_from_doc(f, sc) for f in factors))
    if tag == "power":
        base = doc.get("base")
        if not isinstance(base, dict):
            raise sc.error("power document needs a 'base' object")
        return PowerSpec(spec_from_doc(base, sc), _int(doc, "k", sc))
    if tag == "explicit":
        raw = doc.get("gens")
        if not isinstance(raw, list):
            raise sc.error("explicit document needs a 'gens' list")
        parsed = [_generator(g, sc) for g in raw]
        n = _int(doc, "n", sc, max((m.n for m in parsed), default=0))
        check_variable_count(n)
        gens = [Monomial(m.exponents + (0,) * (n - m.n)) for m in parsed]
        return ExplicitSpec(MonomialIdeal(n, gens))
    raise sc.error(f"unknown family type {tag!r}")


def spec_to_doc(spec: FamilySpec) -> dict[str, Any]:
    """Canonical JSON-ready document for a family spec (round-trips)."""
    if isinstance(spec, VeroneseSpec):
        return {"type": "veronese", "b": list(spec.bounds), "d": spec.degree}
    if isinstance(spec, BorelSpec):
        return {
            "type": "borel",
            "gens": [str(g) for g in spec.generators],
            "n": spec.n,
        }
    if isinstance(spec, PLPSpec):
        return {
            "type": "plp",
            "a": list(spec.lower),
            "b": list(spec.upper),
            "alpha": list(spec.alpha),
            "beta": list(spec.beta),
        }
    if isinstance(spec, LPSpec):
        return {
            "type": "lp",
            "alpha": list(spec.alpha),
            "beta": list(spec.beta),
            "n": spec.n,
        }
    if isinstance(spec, TransversalSpec):
        return {
            "type": "transversal",
            "sets": [sorted(A) for A in spec.sets],
            "n": spec.n,
        }
    if isinstance(spec, ProductSpec):
        return {"type": "product", "factors": [spec_to_doc(f) for f in spec.factors]}
    if isinstance(spec, PowerSpec):
        return {"type": "power", "base": spec_to_doc(spec.base), "k": spec.exponent}
    if isinstance(spec, ExplicitSpec):
        return {
            "type": "explicit",
            "gens": [str(g) for g in spec.ideal.gens],
            "n": spec.ideal.n,
        }
    raise ValueError(f"unknown spec {spec!r}")


def format_spec(spec: FamilySpec) -> str:
    return json.dumps(spec_to_doc(spec), separators=(", ", ": "))


# ---------------------------------------------------------------------------
# the combined entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealSource:
    """A parsed input: the realized ideal plus the family spec, if one was
    given rather than an explicit generator list."""

    ideal: MonomialIdeal
    spec: Optional[FamilySpec] = None

    @property
    def n(self) -> int:
        return self.ideal.n


def parse_ideal(text: str) -> IdealSource:
    """Parse either a generator list or a family-spec document."""
    sc = _Scanner(text)
    ch = sc.peek()
    if ch == "[":
        monomials, declared, declared_at = _parse_generator_list(sc)
        width = max((max(m) for m in monomials if m), default=0)
        n = declared if declared is not None else width
        if width > n:
            raise sc.error(
                f"variable index {width} exceeds declared n={n}", declared_at
            )
        check_variable_count(n)
        return IdealSource(MonomialIdeal(n, [_monomial(exps, n) for exps in monomials]))
    if ch == "{":
        doc = _scan_value(sc)
        if not sc.at_end():
            raise sc.error("trailing input after family document")
        spec = spec_from_doc(doc, sc)
        return IdealSource(realize(spec), spec)
    raise sc.error("input must start with '[' (generators) or '{' (family spec)")


def format_ideal(I: MonomialIdeal) -> str:
    """Canonical generator-list form; parsing it back yields the same ideal."""
    inner = ", ".join(str(g) for g in I.gens)
    return f"[{inner}] n={I.n}"


def parse_variable_order(text: str, n: int) -> VariableOrder:
    """Parse an order like ``x2>x1>x3`` over exactly the variables 1..n."""
    sc = _Scanner(text)
    chain = []
    while True:
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] in "xX":
            sc.pos += 1
        else:
            raise sc.error("expected a variable like x2")
        chain.append(sc.integer())
        if sc.at_end():
            break
        sc.expect(">")
    if sorted(chain) != list(range(1, n + 1)):
        raise sc.error(f"order must mention each of x1..x{n} exactly once")
    return VariableOrder(tuple(chain))


# ---------------------------------------------------------------------------
# JSON report fragments
# ---------------------------------------------------------------------------


def ideal_to_json(I: MonomialIdeal) -> dict[str, Any]:
    return {"n": I.n, "gens": [str(g) for g in I.gens]}
