(** Cost shapes: what the smart constructors and the tree cost see of an
    expression, without the expression.

    A shape summarizes an {!Expr.t} in three parts:
    - its cost, [Dag.total_ops (Dag.tree_counts e)];
    - its {e sum view}, what {!Expr.add} keeps of it as an operand: the
      number of non-constant addends, how many of them are [Neg], their
      total cost, and the folded constant addend;
    - its {e product view}, what {!Expr.mul} keeps of it as an operand:
      the {e weight} (number of non-constant factors plus their total
      cost), the signed constant factor, whether the non-constant factors
      are exactly one sum, and how many factors have a costly base (a base
      that is not a variable).

    The cost of a normalized sum is [Σ cost + n - 1] over its [n] operands
    and that of a product is [weight + [|c| <> 1] - 1].  [Expr.mul] groups
    equal factors into powers, but grouping [x^i * x^j] (equal factors over
    a variable, so [i = j]) into [x^(2i)] keeps the weight: [i + j] either
    way.  Only the grouping of a costly base ([s * s] into [s^2] for a sum
    [s]) changes the weight, and that needs two equal costly factors, which
    a single normalized operand never holds.  So {!add} and {!mul} compute
    the exact shape of the normalized result from the operands' shapes
    alone, and return [None] when those do not determine it:
    - {!mul}, when two or more operands carry costly factors (they might be
      equal and group);
    - {!add}, when exactly one non-constant addend survives, no constant
      does, and the addend came out of a flattened sum (as in
      [(x + 3) + (-3)]): the result is that addend, whose own shape is not
      recorded.

    Invariant: for every expression [e] built by the smart constructors,
    [cost (of_expr e) = Dag.total_ops (Dag.tree_counts e)]; [direct p]
    equals [of_expr (Expr.of_poly p)]; and whenever [add (List.map of_expr
    es)] (resp. [mul]) is [Some s], [s] equals [of_expr (Expr.add es)]
    (resp. [Expr.mul]). *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type t

val cost : t -> int
(** Tree operator count of the expression. *)

val of_expr : Expr.t -> t

val direct : Poly.t -> t
(** Shape of [Expr.of_poly p], computed from the terms. *)

val const : Z.t -> t
(** Shape of [Expr.const c]. *)

val var : t
(** Shape of any [Expr.var v]. *)

val add : t list -> t option
(** Shape of [Expr.add] over expressions of these shapes, when determined. *)

val mul : t list -> t option
(** Shape of [Expr.mul] over expressions of these shapes, when determined. *)

val equal : t -> t -> bool
(** All three parts agree. *)
