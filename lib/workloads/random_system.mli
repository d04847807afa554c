(** Seeded random polynomial systems for property-based testing and
    stress runs.  Generation is deterministic in the seed (no global
    state). *)

module Poly := Polysynth_poly.Poly

type config = {
  num_polys : int;
  num_vars : int;  (** drawn from ["x0"; "x1"; ...] *)
  max_terms : int;
  max_degree : int;
  max_coeff : int;
  sharing : bool;
      (** when set, polynomials are built from a small pool of shared
          linear blocks (so that there is genuine structure to find) *)
}

val default_config : config

val generate : seed:int -> config -> Poly.t list

val grid : seed:int -> (string * Poly.t list) list
(** One system per cell of (2..3 variables) x (degree 2..3) x (3..8
    polynomials), in that nesting order, all with shared linear blocks and
    the default term and coefficient bounds.  A cell's seed is
    [seed * 1000 + 100 * vars + 10 * degree + polys], and its name is
    ["rand v<vars> d<degree> p<polys>"].  With [seed = 2009] this is the
    benchmark's [random_mix] corpus. *)
