"""Call-scoped memo: each certification input is built once per command.

`cli.run_command` opens a `scope()`.  While it is open, a function decorated
with `@memoised` returns the value it computed earlier in the scope for the
same arguments instead of running again.  A nested scope (the sub-commands of
`all`) reuses the open one, and the store is dropped when the outermost
scope exits, normally or by an exception.  Outside a scope nothing is
cached, and an exception is never cached.  `batch` does the same for a list
of inputs, computing all misses in one call.

A call hits when its arguments equal those of an earlier call; the store
is a plain dictionary, so a hash collision is a miss.  Arguments are values
that compare by content (a `ModuleRep` compares its field, grading,
p-characters and level actions).  A hit hands out the stored object, so
memoised values must be immutable: `Matrix` arrays are read-only, a
`ModuleRep`'s content is frozen, `HomSpace` bases are tuples (and its span
is private), `TwistElement` is a frozen dataclass, and the projective-cover
builders (`regular_split_projectives`, `generic_verma_projectives` and the
level-r `projective_covers`) and `canonical_r1_hom_bases` return read-only
mappings.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect

# the open scope's store, or None; a context variable, so a thread that did
# not open a scope sees none
_store: contextvars.ContextVar[dict | None] = contextvars.ContextVar("memo", default=None)
_MISS = object()


@contextlib.contextmanager
def scope():
    """Open the memo unless one is open already; drop it when this scope opened it."""
    if _store.get() is not None:
        yield
        return
    token = _store.set({})
    try:
        yield
    finally:
        _store.reset(token)


def memoised(fn):
    """Memoise fn within the open scope, keyed by its arguments in parameter order.

    Defaults are applied and the arguments must be hashable.  A call with
    every argument positional is keyed without binding; the parameter names
    and defaults are read once.
    """
    sig = inspect.signature(fn)
    names = tuple(sig.parameters)
    defaults = {n: q.default for n, q in sig.parameters.items() if q.default is not q.empty}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        store = _store.get()
        if store is None:
            return fn(*args, **kwargs)
        if kwargs or len(args) != len(names):
            sig.bind(*args, **kwargs)   # raises the TypeError of a bad call
            args += tuple(kwargs[n] if n in kwargs else defaults[n]
                          for n in names[len(args):])
        value = store.get((fn, args), _MISS)
        if value is _MISS:
            value = store[fn, args] = fn(*args)
        return value

    return wrapper


def batch(fn, items: list) -> list:
    """fn(items), one value per item, memoised item by item in the open scope.

    Each item is its own key, as in `memoised`.  The distinct misses, told
    apart by equality, go to one fn call.  Outside a scope fn gets every item.
    """
    store = _store.get()
    if store is None:
        return fn(items)
    misses = list(dict.fromkeys(x for x in items if (fn, x) not in store))
    if misses:
        store.update(((fn, x), value) for x, value in zip(misses, fn(misses)))
    return [store[fn, x] for x in items]
