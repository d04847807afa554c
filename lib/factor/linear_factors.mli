(** Rational-root extraction: the linear factors of a univariate view.

    For a polynomial seen as univariate in one variable (with integer
    coefficients), every linear factor [a*v - b] has [b/a] among the
    rational candidates [divisors of trailing coefficient / divisors of
    leading coefficient].  Datapath polynomials are tiny, so trial
    division over the candidate set is exact and fast.  Richer linear
    building blocks found this way (e.g. [2x - 3]) feed algebraic
    division. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

val divisors : Z.t -> Z.t list
(** The positive divisors of [|z|], each once, in no particular order;
    [divisors zero = [one]].  Trial division up to [sqrt |z|], on native
    ints below [2^62]. *)

val roots : string -> Poly.t -> (Z.t * Z.t) list
(** [roots v u] lists the rational roots [b/a] of [u] as univariate in [v]
    (requires the coefficients in [v] to be constants, i.e. [u] univariate;
    pairs are coprime with [a > 0], each listed once regardless of
    multiplicity).
    @raise Invalid_argument if [u] is zero or mentions other variables. *)

val linear_factors : string -> Poly.t -> (Poly.t * int) list * Poly.t
(** [linear_factors v u = (factors, rest)] with
    [u = rest * prod (a_i*v - b_i)^k_i], the factors primitive with positive
    leading coefficient, and [rest] free of rational roots in [v]. *)
