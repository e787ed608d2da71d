#!/usr/bin/env python3
"""Fails when the project's library link graph has a cycle.

usage: link_cycles.py DOT_FILE

DOT_FILE is the top-level file `cmake --graphviz=DOT_FILE <build dir>`
writes. Only targets named daos_* are checked; a cycle among them is
printed as `a -> b -> ... -> a` and the script exits 1.
"""
import re
import sys

NODE = re.compile(r'^\s*"(node\d+)"\s*\[\s*label\s*=\s*"([^"]+)"')
EDGE = re.compile(r'^\s*"(node\d+)"\s*->\s*"(node\d+)"')


def find_cycle(edges):
    """Returns one cycle as a list of names (first == last), or None."""
    state = {}  # name -> 1 on the DFS stack, 2 finished
    stack = []

    def visit(name):
        state[name] = 1
        stack.append(name)
        for dep in sorted(edges.get(name, ())):
            if state.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        state[name] = 2
        return None

    for name in sorted(edges):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    labels = {}
    pairs = []
    with open(sys.argv[1]) as f:
        for line in f:
            m = NODE.match(line)
            if m:
                labels[m.group(1)] = m.group(2)
                continue
            m = EDGE.match(line)
            if m:
                pairs.append(m.groups())
    edges = {}
    for a, b in pairs:
        la, lb = labels.get(a, ""), labels.get(b, "")
        if la.startswith("daos_") and lb.startswith("daos_"):
            edges.setdefault(la, set()).add(lb)
    if not edges:
        print(f"{sys.argv[1]}: no daos_* link edges", file=sys.stderr)
        return 2
    cycle = find_cycle(edges)
    if cycle:
        print("link cycle: " + " -> ".join(cycle), file=sys.stderr)
        return 1
    print(f"no link cycle among {len(edges)} daos_* libraries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
