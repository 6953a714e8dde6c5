"""Operator base classes for the dataflow-graph substrate.

Every computation in the reproduction — model inference, training, fault
injection, and Ranger's range-restriction operators — is expressed as a graph
of :class:`Operator` nodes.  An operator is a small, stateless-by-default
object exposing a ``forward`` method (numpy in, numpy out) and, for the
trainable subset, a ``backward`` method that returns gradients with respect to
each input.

The design deliberately mirrors a TensorFlow-1.x-style static graph: operators
are named, immutable once created, and the graph is append-only.  Ranger's
Algorithm 1 (see ``repro.core.transform``) relies on exactly that structure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

Array = np.ndarray


class OperatorError(RuntimeError):
    """Raised when an operator receives inputs it cannot process."""


class Operator:
    """Base class for all graph operators.

    Subclasses implement :meth:`forward` and, when they participate in
    training, :meth:`backward`.  ``forward`` receives the already-evaluated
    input arrays in the order the node's inputs were declared, and returns a
    single output array.  ``backward`` receives the upstream gradient together
    with the cached forward inputs/output and returns one gradient per input
    (``None`` for inputs that do not need gradients, e.g. integer shape
    arguments).
    """

    #: Category tag used by Ranger's layer-selection logic and the fault
    #: injector.  One of: "input", "variable", "compute", "activation",
    #: "pooling", "reshape", "concat", "normalization", "output",
    #: "protection".
    category: str = "compute"

    #: Whether the operator is a legal fault-injection site.  Inputs and
    #: constants are excluded (the paper's fault model injects into the output
    #: of computational operators only).
    injectable: bool = True

    #: **Batch-transparency contract** (audited for the batched replay
    #: engine).  An operator is batch-transparent when, at inference, row
    #: ``i`` of its output depends only on row ``i`` of each batch-carrying
    #: input (plus the batch-invariant parameter inputs) — i.e. stacking B
    #: independent batch-1 inputs yields the B stacked batch-1 outputs, up
    #: to BLAS reassociation noise.  Every inference-mode operator in this
    #: codebase satisfies the contract; the two training-mode exceptions
    #: (``BatchNorm`` with batch statistics, ``Dropout`` with an active
    #: mask) override this as a property so the batched executor can refuse
    #: them with a clear error instead of silently coupling trials.
    batch_transparent: bool = True

    #: Axis of the batch dimension in the operator's *output*, or ``None``
    #: for batch-invariant outputs (weights, constants, restriction bounds)
    #: that are implicitly shared by every row of a batched evaluation.
    #: The batched executor uses this to decide which cached inputs must be
    #: broadcast to the stacked batch and which are passed through as-is.
    batch_axis: Optional[int] = 0

    #: **Pointwise contract** (read by windowed batched replay).  An
    #: operator is pointwise when every output element depends only on
    #: the input elements at the same spatial position (channels of that
    #: position included), and is computed by correctly rounded IEEE
    #: operations (``+ - * /``, comparisons, selects, min/max, clip), so
    #: that evaluating it on any subset of positions — flattened to
    #: ``(positions, channels)`` — gives the same bits as evaluating the
    #: whole array.  Its batch-invariant inputs must broadcast against the
    #: channel axis alone.  Replay then evaluates it only inside the boxes
    #: where its inputs differ from golden (see :mod:`repro.ops.boxes`).
    #: Ops built from transcendental functions (``exp``, ``tanh``,
    #: ``arctan``, ``**``) must not set it: numpy's vector and scalar loops
    #: may round them differently depending on the array's shape.  Neither
    #: may ops that read other positions (conv, pooling, softmax, reshape,
    #: pad) or whose result depends on the array's shape (a random draw
    #: over the row's shape, as in ``ReplaceWithRandom``).
    pointwise: bool = False

    #: **Grid-closure contract** (read by the dtype-policy skip).  An
    #: operator is grid-closed when every element of its output is an
    #: element of one of its inputs, ``+0.0`` or NaN, whatever the input
    #: values: it only selects, moves, pads or zeroes them (max/min
    #: selections, ReLU, reshapes, concats, zero padding).  A dtype
    #: policy's outputs, ``+0.0`` and NaN are fixed points of the policy
    #: (see :class:`~repro.graph.executor.DTypePolicy`), so such an
    #: operator's output is a policy output whenever all its inputs are,
    #: and the executor does not apply the policy to it again (see
    #: :meth:`~repro.graph.graph.Graph.grid_closed_nodes`).  Arithmetic
    #: that can make a new value must not set it: sums (which saturate),
    #: products, averages, and clipping to bounds that are not themselves
    #: inputs.
    grid_closed: bool = False

    def forward(self, *inputs: Array) -> Array:
        raise NotImplementedError

    def backward(self, grad: Array, inputs: Sequence[Array],
                 output: Array) -> List[Optional[Array]]:
        raise NotImplementedError(
            f"{type(self).__name__} does not support backpropagation")

    # -- introspection -----------------------------------------------------

    def flops(self, input_shapes: Sequence[Tuple[int, ...]],
              output_shape: Tuple[int, ...]) -> int:
        """Floating-point operation count for one forward evaluation.

        The default estimate is one operation per output element, which is
        accurate for element-wise operators; heavier operators (convolution,
        matmul, pooling) override this.
        """
        return int(np.prod(output_shape))

    def config(self) -> Dict[str, Any]:
        """A JSON-serializable description of the operator's parameters."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = ", ".join(f"{k}={v!r}" for k, v in self.config().items())
        return f"{type(self).__name__}({cfg})"


class Placeholder(Operator):
    """Graph input.  Its value is supplied through the executor's feed dict."""

    category = "input"
    injectable = False

    def __init__(self, name: str = "input",
                 shape: Optional[Tuple[int, ...]] = None) -> None:
        self.name = name
        self.shape = shape

    def forward(self, *inputs: Array) -> Array:
        raise OperatorError(
            f"placeholder '{self.name}' must be fed a value at execution time")

    def config(self) -> Dict[str, Any]:
        return {"name": self.name, "shape": self.shape}


class Constant(Operator):
    """A fixed array baked into the graph (e.g. restriction bounds)."""

    category = "variable"
    injectable = False
    #: Constants (restriction bounds, shape parameters) have no batch axis:
    #: the same value is shared by every row of a batched evaluation.
    batch_axis = None

    def __init__(self, value: Array) -> None:
        self.value = np.asarray(value)

    def forward(self, *inputs: Array) -> Array:
        return self.value

    def backward(self, grad, inputs, output):
        return []

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, Any]:
        return {"shape": tuple(self.value.shape)}


class Variable(Operator):
    """A trainable parameter (weight or bias).

    The executor treats variables like constants during the forward pass, but
    the trainer accumulates gradients into :attr:`grad` and optimizers update
    :attr:`value` in place.
    """

    category = "variable"
    injectable = False

    #: Weights and biases have no batch axis; they are shared by every row
    #: of a batched evaluation exactly as in a batch-1 run.
    batch_axis = None

    def __init__(self, value: Array, trainable: bool = True,
                 name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.trainable = trainable
        self.name = name
        self.grad: Optional[Array] = None

    def forward(self, *inputs: Array) -> Array:
        return self.value

    def backward(self, grad, inputs, output):
        return []

    def accumulate_grad(self, grad: Array) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def __getstate__(self):
        """Pickle the parameter without its gradient.

        The gradient is training scratch: it is rebuilt by the next
        backward pass, it would double the size of every pickled model,
        and a content fingerprint over it would change with every
        backward pass (see :meth:`repro.graph.graph.Graph.__getstate__`).
        """
        state = dict(self.__dict__)
        state["grad"] = None
        return state

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, Any]:
        return {"shape": tuple(self.value.shape), "trainable": self.trainable,
                "name": self.name}


class Identity(Operator):
    """Pass-through operator, useful as a named output anchor."""

    category = "reshape"
    pointwise = True
    grid_closed = True

    def forward(self, x: Array) -> Array:
        return x

    def backward(self, grad, inputs, output):
        return [grad]

    def flops(self, input_shapes, output_shape) -> int:
        return 0
