"""Predicate language over world instances.

Grammar (standard precedence, not > and > or):

    expr     := or
    or       := and ("or" and)*
    and      := unary ("and" unary)*
    unary    := "not" unary | atom
    atom     := "(" expr ")" | typetest | idtest | attrcmp | structtest
    typetest := "is" IDENT
    idtest   := "id" "in" setlit
    attrcmp  := "attr" "(" STRING ")" CMP literal
              | "attr" "(" STRING ")" "in" setlit
    structtest := "child_count" "(" expr ")" CMP INT
                | "has_parent" "(" expr ")"
                | "has_child" "(" expr ")"
    setlit   := "{" (literal ("," literal)*)? "}"
    literal  := STRING | NUMBER
    CMP      := "=" | "!=" | "<" | "<=" | ">" | ">="

Event expressions (parse_event) reuse the expr/or/and/unary rules over
node indicators, with

    atom     := "(" expr ")" | NODEID | STRING

where NODEID is any run of characters other than whitespace, parentheses
and quotes ("ce:as:1#0"); "in", "is" and "id" are node ids there.

Type names are written in identifier form: spaces, slashes and hyphens
dropped ("Router/Switch" -> RouterSwitch); a valid ontology gives each
type its own.  A comparison against a missing attribute is false and logs
a warning.  Structural tests (child_count, has_parent, has_child) walk the
world's edges.  `select` is the one rule for which nodes a predicate
picks; it answers `is` and `id in` from the world's type codes and index.
"""

import logging
import re
from dataclasses import dataclass

import numpy as np

from .errors import PredicateSyntaxError
from .ontology import is_type

log = logging.getLogger(__name__)

COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class IsType:
    name: str


@dataclass(frozen=True)
class IdIn:
    ids: frozenset


@dataclass(frozen=True)
class AttrCmp:
    name: str
    op: str
    value: object


@dataclass(frozen=True)
class AttrIn:
    name: str
    values: frozenset


@dataclass(frozen=True)
class ChildCount:
    pred: object
    op: str
    count: int


@dataclass(frozen=True)
class HasParent:
    pred: object


@dataclass(frozen=True)
class HasChild:
    pred: object


@dataclass(frozen=True)
class EventAtom:
    node_id: str


@dataclass(frozen=True)
class Predicate:
    """A parsed predicate; `text` is the exact source it parses back from."""
    text: str
    root: object

    def __bool__(self):
        raise TypeError("evaluate predicates with eval_predicate, not bool()")


# --- Lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|[=<>(){},])
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "is", "id", "in"}

_EVENT_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>[()])
  | (?P<word>[^\s()"]+)
""", re.VERBOSE)

_EVENT_KEYWORDS = {"and", "or", "not"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    column: int


def _tokenize(text, token_re=_TOKEN_RE, keywords=_KEYWORDS):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise PredicateSyntaxError(
                f"unexpected character {text[pos]!r}",
                line, pos - line_start + 1)
        column = pos - line_start + 1
        if m.lastgroup == "ws":
            chunk = m.group()
            if "\n" in chunk:
                line += chunk.count("\n")
                line_start = pos + chunk.rindex("\n") + 1
        elif m.lastgroup == "string":
            raw = m.group()
            try:
                value = raw[1:-1].encode().decode("unicode_escape")
            except UnicodeDecodeError:
                raise PredicateSyntaxError("bad string escape", line, column)
            tokens.append(_Token("string", value, line, column))
        elif m.lastgroup == "number":
            raw = m.group()
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("number", value, line, column))
        elif m.lastgroup in ("ident", "word"):
            word = m.group()
            kind = word if word in keywords else m.lastgroup
            tokens.append(_Token(kind, word, line, column))
        else:
            tokens.append(_Token(m.group(), m.group(), line, column))
        pos = m.end()
    tokens.append(_Token("eof", None, line, len(text) - line_start + 1))
    return tokens


# --- Parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        if self.cur.kind != kind:
            raise PredicateSyntaxError(
                f"expected {what or kind}, found {self._describe(self.cur)}",
                self.cur.line, self.cur.column)
        return self.advance()

    @staticmethod
    def _describe(tok):
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.value)

    def fail(self, message):
        raise PredicateSyntaxError(message, self.cur.line, self.cur.column)

    def parse_expr(self):
        node = self.parse_and()
        items = [node]
        while self.cur.kind == "or":
            self.advance()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self):
        items = [self.parse_unary()]
        while self.cur.kind == "and":
            self.advance()
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self):
        if self.cur.kind == "not":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        if self.cur.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        return self.parse_test()

    def parse_test(self):
        tok = self.cur
        if tok.kind == "is":
            self.advance()
            name = self.expect("ident", "a type name")
            return IsType(name.value)
        if tok.kind == "id":
            self.advance()
            self.expect("in")
            return IdIn(frozenset(self.parse_setlit(strings_only=True)))
        if tok.kind == "ident" and tok.value == "attr":
            return self.parse_attr()
        if tok.kind == "ident" and tok.value == "child_count":
            self.advance()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            op = self.parse_cmp()
            count = self.expect("number", "an integer")
            if not isinstance(count.value, int) or count.value < 0:
                raise PredicateSyntaxError("child_count needs a non-negative "
                                           "integer", count.line, count.column)
            return ChildCount(inner, op, count.value)
        if tok.kind == "ident" and tok.value in ("has_parent", "has_child"):
            self.advance()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            return HasParent(inner) if tok.value == "has_parent" else HasChild(inner)
        self.fail(f"expected a test, found {self._describe(tok)}")

    def parse_attr(self):
        self.advance()
        self.expect("(")
        name = self.expect("string", "a quoted attribute name")
        self.expect(")")
        if self.cur.kind == "in":
            self.advance()
            return AttrIn(name.value, frozenset(self.parse_setlit()))
        op = self.parse_cmp()
        if self.cur.kind not in ("string", "number"):
            self.fail("expected a literal")
        lit = self.advance()
        return AttrCmp(name.value, op, lit.value)

    def parse_cmp(self):
        if self.cur.kind not in COMPARATORS:
            self.fail(f"expected a comparator, found {self._describe(self.cur)}")
        return self.advance().kind

    def parse_setlit(self, strings_only=False):
        self.expect("{")
        values = []
        if self.cur.kind != "}":
            while True:
                if self.cur.kind not in ("string", "number"):
                    self.fail("expected a literal in set")
                if strings_only and self.cur.kind != "string":
                    self.fail("expected a quoted id in set")
                values.append(self.advance().value)
                if self.cur.kind != ",":
                    break
                self.advance()
        self.expect("}")
        return values

    def parse_all(self):
        root = self.parse_expr()
        if self.cur.kind != "eof":
            self.fail(f"unexpected {self._describe(self.cur)} after expression")
        return root


class _EventExprParser(_Parser):
    def parse_test(self):
        tok = self.cur
        if tok.kind not in ("word", "string") or not tok.value:
            self.fail(f"expected a node id, found {self._describe(tok)}")
        self.advance()
        return EventAtom(tok.value)


def parse_predicate(text):
    if not text or not text.strip():
        raise PredicateSyntaxError("empty predicate", 1, 1)
    return Predicate(text, _Parser(_tokenize(text)).parse_all())


def parse_event(text):
    """Parse an event expression: and/or/not and parentheses over node ids.

    Raises ValueError, since an event is given on the command line rather
    than in a document.
    """
    if not text or not text.strip():
        raise ValueError("empty event expression")
    try:
        tokens = _tokenize(text, _EVENT_TOKEN_RE, _EVENT_KEYWORDS)
        return _EventExprParser(tokens).parse_all()
    except PredicateSyntaxError as exc:
        raise ValueError(f"bad event expression: {exc}") from exc


# --- Evaluation ------------------------------------------------------------

def eval_predicate(pred, world, node_id):
    """Evaluate `pred` on instance `node_id` of `world`."""
    if node_id not in world:
        raise KeyError(f"unknown instance {node_id!r}")
    return _eval(pred.root, world, node_id)


def select(world, node, ids=None):
    """The ids among `ids` on which the predicate tree `node` holds, in
    the order of `ids`; with `ids` None, every instance of `world` in id
    order, where `id in` and `is` at the root skip evaluating each id."""
    if ids is None and isinstance(node, IdIn):
        return tuple(i for i in sorted(node.ids) if i in world)
    if ids is None and isinstance(node, IsType):
        hit = np.isin(world.type_code, [k for k, t in enumerate(
            world.type_names) if is_type(node.name, t)])
        return tuple(map(world.names.__getitem__,
                         np.flatnonzero(hit).tolist()))
    return tuple(i for i in (world.ids if ids is None else ids)
                 if _eval(node, world, i))


def _eval(node, world, node_id):
    if isinstance(node, And):
        return all(_eval(n, world, node_id) for n in node.items)
    if isinstance(node, Or):
        return any(_eval(n, world, node_id) for n in node.items)
    if isinstance(node, Not):
        return not _eval(node.inner, world, node_id)
    if isinstance(node, IsType):
        return is_type(node.name, world.type_of(node_id))
    if isinstance(node, IdIn):
        return node_id in node.ids
    if isinstance(node, (AttrCmp, AttrIn)):
        value = world.attribute(node_id, node.name, _MISSING)
        if value is _MISSING:
            log.warning("predicate tests missing attribute %r on %s",
                        node.name, node_id)
            return False
        if isinstance(node, AttrCmp):
            return _compare(value, node.op, node.value, node.name, node_id)
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(v in node.values for v in value)
        return value in node.values
    if isinstance(node, ChildCount):
        count = sum(1 for c in world.children(node_id)
                    if _eval(node.pred, world, c))
        return _compare(count, node.op, node.count, "child_count", node_id)
    if isinstance(node, HasParent):
        return any(_eval(node.pred, world, p)
                   for p in world.parents(node_id))
    if isinstance(node, HasChild):
        return any(_eval(node.pred, world, c)
                   for c in world.children(node_id))
    raise TypeError(f"unknown predicate node {node!r}")


_MISSING = object()


def eval_event(node, leaf):
    """Evaluate an event tree over boolean arrays; leaf(node_id) gives the
    array of one node's indicator."""
    if isinstance(node, EventAtom):
        return leaf(node.node_id)
    if isinstance(node, Not):
        return ~eval_event(node.inner, leaf)
    if isinstance(node, (And, Or)):
        out = eval_event(node.items[0], leaf)
        for item in node.items[1:]:
            col = eval_event(item, leaf)
            out = out & col if isinstance(node, And) else out | col
        return out
    raise TypeError(f"unknown event node {node!r}")


def _compare(value, op, literal, name, node_id):
    try:
        if op == "=":
            return value == literal
        if op == "!=":
            return value != literal
        if op == "<":
            return value < literal
        if op == "<=":
            return value <= literal
        if op == ">":
            return value > literal
        if op == ">=":
            return value >= literal
    except TypeError:
        log.warning("attribute %r on %s is not comparable with %r",
                    name, node_id, literal)
        return False
    raise ValueError(f"unknown comparator {op!r}")
