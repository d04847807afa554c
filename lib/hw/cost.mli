(** Technology cost model: the stand-in for the paper's Synopsys Design
    Compiler runs.

    Area is reported in gate equivalents and delay in abstract gate-delay
    units.  The default model uses textbook datapath shapes: an array
    multiplier quadratic in the width, carry-lookahead-style adders linear
    in the width with logarithmic delay, and constant multipliers
    synthesized as CSD (canonical signed digit) shift-add networks whose
    size follows the number of non-zero digits of the constant.  Absolute
    numbers differ from a real standard-cell flow, but relative comparisons
    between decompositions — which is what Table 14.3 reports — are driven
    by operator counts and DAG depth, which are exact here. *)

module Z := Polysynth_zint.Zint

type model = {
  mult_area : int -> int;
  cmult_area : int -> Z.t -> int;
  add_area : int -> int;
  neg_area : int -> int;
  mult_delay : int -> float;
  cmult_delay : int -> Z.t -> float;
  add_delay : int -> float;
  neg_delay : int -> float;
  fanout_delay : float;
      (** extra delay per additional load on a cell's output; this is what
          makes widely shared building blocks slower than duplicated
          logic, reproducing the area-vs-delay trade of Table 14.3 *)
}

val default : model

val csd_digits : Z.t -> int
(** Number of non-zero digits in the canonical signed-digit (non-adjacent
    form) representation; 0 for zero, 1 for powers of two. *)

type report = {
  area : int;  (** total gate equivalents *)
  delay : float;  (** critical path through the netlist *)
  num_mults : int;  (** general multipliers *)
  num_cmults : int;  (** constant multipliers *)
  num_adds : int;  (** adders and subtractors *)
}

val total_operators : report -> int

val of_netlist : ?model:model -> Netlist.t -> report

val of_prog : ?model:model -> width:int -> Polysynth_expr.Prog.t -> report

(** {1 Scoring many root sets of one DAG} *)

type scorer
(** Per-node cell data of one hash-consed DAG, and work arrays reused by
    every {!score} call on it. *)

val scorer : ?model:model -> width:int -> Polysynth_expr.Dag.t -> scorer
(** Tabulate the DAG as it is now; it must not grow afterwards. *)

val score :
  scorer ->
  Polysynth_expr.Dag.id array ->
  report * Polysynth_expr.Dag.counts
(** The cost of the part of the DAG reachable from the roots, and its
    operator counts: bit for bit what [of_netlist] of
    [Netlist.of_dag ~outputs] (one output per root) and [Dag.counts] give,
    without building the netlist.  Allocates only the result.
    @raise Invalid_argument if the DAG grew after [scorer]. *)

val pp_report : Format.formatter -> report -> unit
