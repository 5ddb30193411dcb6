"""Violation reports shared by ontology and world validation, and the
entry check shared by the ontology and world file parsers.

Validators never raise on bad input; every broken invariant becomes one
Violation entry so a caller (or the CLI) can show all problems at once.
The parsers stop at the first malformed entry and name it.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    code: str            # machine-readable, e.g. "cycle", "dangling-edge"
    message: str         # human-readable, names the offending elements
    elements: tuple = () # ids/names involved


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    def add(self, code, message, elements=()):
        self.violations.append(Violation(code, message, tuple(elements)))

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __len__(self):
        return len(self.violations)

    def codes(self):
        return [v.code for v in self.violations]

    def summary(self):
        if self.ok:
            return "valid: no violations"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def check_acyclic(report, children, graph):
    """Add one "cycle" violation naming every node of `children`
    ({node: its children}) on a directed cycle or downstream of one: the
    nodes a Kahn topological sort cannot remove.  Children missing from
    the map are ignored; the callers report them as dangling."""
    indeg = dict.fromkeys(children, 0)
    for kids in children.values():
        for c in kids:
            if c in indeg:
                indeg[c] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    while queue:
        for c in children[queue.pop()]:
            if c in indeg:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
    cycle = sorted(n for n, d in indeg.items() if d > 0)
    if cycle:
        report.add("cycle",
                   f"{graph} graph has a cycle through {{{', '.join(cycle)}}}",
                   cycle)


def check_entry(where, entry, keys):
    """Raise ValueError naming `where` unless `entry` is an object whose
    fields `keys` are present and are strings."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object")
    for key in keys:
        if key not in entry:
            raise ValueError(f"{where}: missing {key!r}")
        if not isinstance(entry[key], str):
            raise ValueError(f"{where}: {key!r} must be a string")
