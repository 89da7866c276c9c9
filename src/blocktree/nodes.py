"""Node representation and ownership accounting.

A tree handle is ``None`` (the empty tree), a ``Regular`` node holding one
entry and two children, or a ``Flat`` node holding a run of entries in one
encoded payload.  Nodes are immutable once published; the only mutable state
is the owner count (``owners``).

Ownership protocol (used by the core algebra; see core.py):

* a freshly allocated node carries one owner, held by its creator;
* constructors consume the references passed to them (linking a child
  transfers the caller's reference into the parent link);
* ``retain`` adds an owner when an existing subtree is shared into a new
  tree or handed to a caller;
* ``release`` drops an owner and, at zero, reclaims the node and releases
  its children.

``new_regular`` and ``new_flat`` are the only allocations.  Each counts one
allocation and one live node (``counters``), makes the node with
``object.__new__`` and fills its slots, inline: a point update's path copy
makes one regular node per level, and a shared helper there would cost a
call per node.

Owner updates are plain integer bumps while the library runs single-threaded
and take a lock once a worker pool is active (see parallel.py).  Entry values
are opaque to this accounting; payloads that themselves hold tree handles
(the graph store's nested maps) are kept alive by the host garbage collector.
"""

import threading

from .counters import counters
from .errors import ContractError

_rc_lock = threading.Lock()
# Flipped by parallel.set_threads(); when True, owner updates are locked.
_locked_mode = False


def set_locked_refcounts(enabled):
    global _locked_mode
    _locked_mode = bool(enabled)


class Regular:
    __slots__ = ("key", "value", "left", "right", "size", "aug",
                 "owners")

    def __repr__(self):
        return f"<Regular key={self.key!r} size={self.size} owners={self.owners}>"


class Flat:
    __slots__ = ("count", "payload", "first_key", "last_key", "aug",
                 "owners")

    def __repr__(self):
        return f"<Flat count={self.count} owners={self.owners}>"


def size(t):
    if t is None:
        return 0
    if type(t) is Flat:
        return t.count
    return t.size


def weight(t):
    return size(t) + 1


def new_regular(key, value, left, right, subtree_size, aug):
    counters.allocations += 1
    counters.live += 1
    node = object.__new__(Regular)
    node.key = key
    node.value = value
    node.left = left
    node.right = right
    node.size = subtree_size
    node.aug = aug
    node.owners = 1
    return node


def new_flat(count, payload, first_key, last_key, aug):
    counters.allocations += 1
    counters.live += 1
    node = object.__new__(Flat)
    node.count = count
    node.payload = payload
    node.first_key = first_key
    node.last_key = last_key
    node.aug = aug
    node.owners = 1
    return node


def retain(t):
    if t is None:
        return t
    if _locked_mode:
        with _rc_lock:
            t.owners += 1
    else:
        t.owners += 1
    return t


def release(t):
    """Drop one owner; reclaim at zero, releasing children recursively."""
    while t is not None:
        if _locked_mode:
            with _rc_lock:
                t.owners -= 1
                remaining = t.owners
        else:
            t.owners -= 1
            remaining = t.owners
        if remaining > 0:
            return
        if remaining < 0:
            raise ContractError("release below zero owners")
        counters.reclaims += 1
        counters.live -= 1
        if type(t) is Flat:
            return
        # recurse on one child, iterate on the other: depth stays bounded
        # by the tree height
        if t.left is not None:
            release(t.left)
        t = t.right
