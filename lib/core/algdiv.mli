(** Algebraic division by linear building blocks (Section 14.4.3) and the
    recursive decomposition it drives.

    Given the divisor set exposed by CCE, cube extraction and square-free
    factorization, [decompose] rewrites a polynomial as the cheapest of:
    - its direct sum-of-products form;
    - integer content times a decomposed primitive part;
    - a perfect power of a (typically linear) root;
    - [d * Q + R] for a divisor [d], with [Q] and [R] decomposed
      recursively — this is the move that turns
      [13x^2 + 26xy + 13y^2 + 7x - 7y + 11] into [13*d1^2 + 7*d2 + 11];
    - co-kernel factoring [c * K + rest] with [K] decomposed recursively.

    Divisors used by the chosen form are registered in the block table and
    appear as variables in the result.

    Candidates are compared on exact cost shapes
    ({!Polysynth_expr.Shape}), not on built expressions: a visit computes
    each candidate's shape from its operands' shapes and keeps the first
    of least cost, and only the winners the result reaches are built,
    once, when [decompose] returns.  (The perfect-power candidate is the
    exception: it is built when found, because naming its root registers
    a block.)  The result is the expression the build-every-candidate
    recursion returns, byte for byte. *)

module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr

type session

val make_session : Blocktab.t -> divisors:Poly.t list -> session

val decompose : ?depth:int -> session -> Poly.t -> Expr.t
(** Best decomposition found; expands back to the input polynomial (with
    block variables replaced by their definitions).  [depth] is the
    internal recursion level (structural rewrites stop after 4 levels);
    callers normally omit it. *)

val divisors : session -> Poly.t list
