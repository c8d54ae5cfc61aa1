"""Call-scoped memo: each certification input is built once per command.

`cli.run_command` opens a `scope()`.  While it is open, a function decorated
with `memoised` returns the value it computed earlier in the scope for the
same key instead of running again.  A nested scope (the sub-commands of
`all`) reuses the open one, and the store is dropped when the outermost
scope exits, normally or by an exception.  Outside a scope nothing is
cached, and an exception is never cached.  `batch` does the same for a list
of inputs, computing all misses in one call.

A hit hands out the stored object, or one that shares its parts, so
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


def memoised(key=None, reuse=None):
    """Memoise the decorated function within the open scope.

    key(**arguments) gives the lookup key; by default it is the tuple of the
    arguments in parameter order with defaults applied, which must be
    hashable.  A call with every argument positional is keyed without
    binding; the parameter names and defaults are read once.  If
    reuse(value, **arguments) is given, a stored value is handed out only
    through it: it returns what this call returns, built from the stored
    value, or None when the stored value belongs to other inputs, so a key
    that is only a digest can never return the value of other inputs.
    """
    def decorate(fn):
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
                kwargs = {}
            arguments = dict(zip(names, args))
            k = key(**arguments) if key is not None else tuple(arguments.values())
            bucket = store.setdefault((fn, k), [])
            for value in bucket:
                out = value if reuse is None else reuse(value, **arguments)
                if out is not None:
                    return out
            value = fn(*args, **kwargs)
            bucket.append(value)
            return value

        return wrapper

    return decorate


def batch(fn, items: list, key, reuse) -> list:
    """fn(items), one value per item, memoised item by item in the open scope.

    Item x is looked up under (fn, key(x)) and handed out through
    reuse(value, x), as in `memoised`.  The first miss of each key goes to one
    fn call, and the other misses are looked up again after it, so a repeat
    within the batch reuses its value.  Outside a scope fn gets every item.
    """
    store = _store.get()
    if store is None:
        return fn(items)
    keys = [key(x) for x in items]
    out = [next((v for v in (reuse(s, x) for s in store.get((fn, k), ())) if v is not None),
                None) for x, k in zip(items, keys)]
    first: dict = {}    # key -> its first miss
    for i, k in enumerate(keys):
        if out[i] is None:
            first.setdefault(k, i)
    if first:
        for (k, i), value in zip(first.items(), fn([items[i] for i in first.values()])):
            store.setdefault((fn, k), []).append(value)
            out[i] = value
        rest = [i for i, v in enumerate(out) if v is None]
        for i, value in zip(rest, batch(fn, [items[i] for i in rest], key, reuse)):
            out[i] = value
    return out
