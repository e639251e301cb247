"""Dense float64 tensors with a per-forward-pass gradient tape.

Every differentiable operation records a backward rule onto the thread's
active :class:`Tape`. Operations append in execution order, so the tape is
topologically sorted by construction and a single reverse sweep populates
gradients for every tensor that requires them.

A tensor keeps its gradient side in a small :class:`GradSlot`: the
``requires_grad`` flag and the ``grad`` array. The tape and the backward
rules hold slots, not tensors, so an op output that no backward rule reads
is freed as soon as the forward pass drops it; its slot, which holds no
data, stays on the tape to receive its gradient.
"""

import threading

import numpy as np

from ..errors import ContractViolation

_tls = threading.local()


def _tape_stack():
    if not hasattr(_tls, "tapes"):
        _tls.tapes = []
    return _tls.tapes


def active_tape():
    """The innermost open tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class GradSlot:
    """The gradient side of one tensor: its ``requires_grad`` flag and ``grad``.

    ``grad`` is None until a backward rule accumulates into it; the first
    write copies, later writes add in place.
    """

    __slots__ = ("requires_grad", "grad")

    def __init__(self, requires_grad):
        self.requires_grad = requires_grad
        self.grad = None

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g


class Tensor:
    """A dense n-dimensional float64 array with a gradient slot.

    ``data`` is always a float64 ndarray; ``grad`` is either None or an
    ndarray of identical shape. Values are expected to stay finite; inputs
    entering from outside the op graph are validated on construction.
    ``requires_grad`` and ``grad`` read and write the tensor's ``slot``.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractViolation("tensor values must be finite (found NaN/Inf)")
        self.data = arr
        self.slot = GradSlot(bool(requires_grad))

    @classmethod
    def _wrap(cls, arr, requires_grad):
        """Internal fast path for op outputs; skips the finiteness scan."""
        t = cls.__new__(cls)
        t.data = arr
        t.slot = GradSlot(requires_grad)
        return t

    @property
    def requires_grad(self):
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value):
        self.slot.requires_grad = bool(value)

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, value):
        self.slot.grad = value

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.slot.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of one forward pass.

    Use as a context manager; ops executed inside record their backward
    rules. A tape drives exactly one :func:`backward` call and is consumed
    by it.
    """

    __slots__ = ("_nodes", "consumed")

    def __init__(self):
        self._nodes = []
        self.consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()
        return False

    def record(self, out, backward_fn):
        """Append a node: ``backward_fn(out_grad)`` scatters into the inputs' slots.

        The node keeps ``out``'s slot only, not ``out`` or its data.
        """
        self._nodes.append((out.slot, backward_fn))

    def __len__(self):
        return len(self._nodes)


def record(out, backward_fn):
    """Record onto the active tape if the output participates in autodiff."""
    tape = active_tape()
    if tape is not None and out.slot.requires_grad:
        tape.record(out, backward_fn)


def backward(loss, tape):
    """Reverse sweep: populate ``grad`` on every reachable requires_grad tensor.

    The loss must be a scalar produced on this tape. Fan-out gradients
    accumulate additively. The tape is consumed and cannot be replayed.

    The sweep pops each node off the tape as it runs it, so the node's
    backward rule, and every array only that rule held, is freed as the
    sweep passes. A node's slot goes with it, gradient and all, unless its
    tensor is still held: a tensor the caller holds keeps its ``grad``.
    """
    if loss.data.size != 1:
        raise ContractViolation(
            f"backward needs a scalar loss, got shape {loss.data.shape}"
        )
    if tape.consumed:
        raise ContractViolation("tape was already consumed by a previous backward")
    loss_slot = loss.slot
    if not any(slot is loss_slot for slot, _ in tape._nodes):
        raise ContractViolation("loss tensor was not produced on this tape")
    tape.consumed = True
    loss_slot.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        slot, backward_fn = nodes.pop()
        if slot.grad is not None:
            backward_fn(slot.grad)


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()

