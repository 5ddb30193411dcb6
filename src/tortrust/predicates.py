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
type its own.  A string literal may hold any Unicode text and Python's
backslash escapes.

`evaluate` is the one and/or/not evaluator of predicates and events.  In
`select` each test is one bool mask over the ranks of `world.names`, read
from the type codes, the index, the sparse attributes or the edge arrays.
An attribute test is false where the attribute is missing or its value
does not compare (an unhashable one under `in`), and logs one warning per
test with the count of such instances among those `select` is asked
about.
"""

import ast
import logging
import operator
import re
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress

import numpy as np

from .errors import InvalidInputError, PredicateSyntaxError, UnknownIdError
from .ontology import is_type

log = logging.getLogger(__name__)

COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")
# The deepest nesting of not, parentheses and tests a parse takes, well
# inside the recursion limit of the parser and of every tree walk.
MAX_NESTING = 100


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
            try:            # the body has no bare quote: triple-quote it
                value = ast.literal_eval(f'""{raw}""')
            except (SyntaxError, ValueError):
                raise PredicateSyntaxError("bad string escape", line, column)
            tokens.append(_Token("string", value, line, column))
        elif m.lastgroup == "number":
            raw = m.group()
            try:
                value = float(raw) if "." in raw else int(raw)
            except ValueError:          # more digits than int() converts
                raise PredicateSyntaxError("number has too many digits",
                                           line, column) from None
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
        self.depth = 0                  # parse_unary calls under way

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        if self.cur.kind != kind:
            self.fail(f"expected {what or kind}, found "
                      f"{self._describe(self.cur)}")
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
        if self.depth > MAX_NESTING:
            self.fail(f"expression is nested more than {MAX_NESTING} deep")
        self.depth += 1
        if self.cur.kind == "not":
            self.advance()
            node = Not(self.parse_unary())
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self):
        if self.cur.kind == "(":
            return self.parse_group()
        return self.parse_test()

    def parse_group(self):
        self.expect("(")
        node = self.parse_expr()
        self.expect(")")
        return node

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
            inner = self.parse_group()
            op = self.parse_cmp()
            count = self.expect("number", "an integer")
            if not isinstance(count.value, int) or count.value < 0:
                raise PredicateSyntaxError("child_count needs a non-negative "
                                           "integer", count.line, count.column)
            return ChildCount(inner, op, count.value)
        if tok.kind == "ident" and tok.value in ("has_parent", "has_child"):
            self.advance()
            inner = self.parse_group()
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
        raise PredicateSyntaxError("empty predicate")
    return Predicate(text, _Parser(_tokenize(text)).parse_all())


def parse_event(text):
    """Parse an event expression: and/or/not and parentheses over node ids.

    Raises ValueError, since an event is given on the command line rather
    than in a document.
    """
    if not text or not text.strip():
        raise InvalidInputError("empty event expression")
    try:
        tokens = _tokenize(text, _EVENT_TOKEN_RE, _EVENT_KEYWORDS)
        return _EventExprParser(tokens).parse_all()
    except PredicateSyntaxError as exc:
        raise InvalidInputError(f"bad event expression: {exc}") from exc


# --- Evaluation ------------------------------------------------------------

def evaluate(tree, leaf):
    """The bool array of an and/or/not tree; leaf(atom) gives each atom's:
    a mask over a world's ranks, a sampler column, a bit over states."""
    if isinstance(tree, Not):
        return ~evaluate(tree.inner, leaf)
    if isinstance(tree, (And, Or)):
        op = np.logical_and if isinstance(tree, And) else np.logical_or
        return reduce(op, (evaluate(item, leaf) for item in tree.items))
    return leaf(tree)


def eval_predicate(pred, world, node_id):
    """Evaluate `pred` on instance `node_id` of `world`."""
    return bool(select(world, pred.root, (node_id,)))


def select(world, node, ids=None):
    """The ids among `ids` on which the predicate tree `node` holds, in
    the order of `ids` (KeyError for one that is no instance); with `ids`
    None, every instance of `world` in id order."""
    if ids is None:
        mask = evaluate(node, partial(_atom_mask, world, slice(None)))
        return tuple(map(world.names.__getitem__,
                         np.flatnonzero(mask).tolist()))
    for node_id in ids:
        if node_id not in world:
            raise UnknownIdError(f"unknown instance {node_id!r}")
    ranks = [world.index[i] for i in ids]
    mask = evaluate(node, partial(_atom_mask, world, ranks))
    return tuple(compress(ids, mask[ranks].tolist()))


def _atom_mask(world, ranks, atom):
    """One test as a bool array over the ranks of `world.names`; an
    attribute test's warnings count only the instances at `ranks`."""
    if isinstance(atom, IsType):
        hit = [is_type(atom.name, t) for t in world.type_names]
        return np.array(hit, dtype=bool)[world.type_code]
    if isinstance(atom, (AttrCmp, AttrIn)):
        return _attr_mask(world, atom, ranks)
    mask = np.zeros(len(world.names), dtype=bool)
    if isinstance(atom, IdIn):
        mask[[world.index[i] for i in atom.ids if i in world.index]] = True
        return mask
    if not isinstance(atom, (ChildCount, HasParent, HasChild)):
        raise TypeError(f"unknown predicate node {atom!r}")
    inner = evaluate(atom.pred, partial(_atom_mask, world, slice(None)))
    if isinstance(atom, ChildCount):
        return _OPS[atom.op](np.bincount(world.src[inner[world.dst]],
                                         minlength=mask.size), atom.count)
    if isinstance(atom, HasParent):
        mask[world.dst[inner[world.src]]] = True
    else:
        mask[world.src[inner[world.dst]]] = True
    return mask


def _attr_mask(world, atom, ranks):
    """One pass over the instances with attributes; the warnings count the
    instances at `ranks` that lack the attribute or whose value does not
    compare."""
    mask = np.zeros(len(world.names), dtype=bool)
    state = np.zeros(len(world.names), dtype=np.int8)  # 1 found, 2 incomparable
    for node_id, attributes in world.attributes.items():
        if atom.name not in attributes:
            continue
        r = world.index[node_id]
        value = attributes[atom.name]
        try:
            if isinstance(atom, AttrCmp):
                hit = _OPS[atom.op](value, atom.value)
            elif isinstance(value, (list, tuple, set, frozenset)):
                hit = any(v in atom.values for v in value)
            else:
                hit = value in atom.values
        except TypeError:               # an unorderable or unhashable value
            state[r] = 2
            continue
        state[r] = 1
        mask[r] = hit
    missing, _, incomparable = np.bincount(state[ranks], minlength=3).tolist()
    if missing:
        log.warning("attribute %r is missing on %d instance(s)", atom.name,
                    missing)
    if incomparable:
        log.warning("attribute %r on %d instance(s) is not comparable with "
                    "the test", atom.name, incomparable)
    return mask


_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
