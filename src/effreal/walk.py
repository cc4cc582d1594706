"""One trampoline for the walks that build a result from a derivation.

A walk is a generator function written as if it called itself: where it
would recurse on a premise, it yields that call's arguments as a tuple
and receives the call's result, and it returns its own result.  ``walk``
runs every call from one explicit stack (Ganz, Friedman & Wand,
"Trampolined Style", ICFP 1999), so the depth of a derivation is bounded
by memory, not by the recursion limit.  An exception raised in any call
leaves ``walk`` unchanged.
"""

from __future__ import annotations


def walk(step, *args):
    """The result of ``step(*args)``, each call it yields run from one stack."""
    stack = [step(*args)]
    result = None
    while stack:
        try:
            args = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(step(*args))
            result = None
    return result
