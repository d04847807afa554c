(** Combination selection — lines 18-24 of Algorithm 7.

    A combination assigns one representation to each polynomial; its cost
    is measured {e after} CSE, i.e. on the hash-consed DAG of the whole
    program (shared building blocks are counted once).  Small systems are
    searched exhaustively; large ones by coordinate descent, re-optimizing
    one polynomial at a time against the sharing created by the others. *)

module Prog := Polysynth_expr.Prog
module Dag := Polysynth_expr.Dag
module Cost := Polysynth_hw.Cost

type objective =
  | Min_area  (** the paper's objective *)
  | Min_delay
  | Min_power  (** switching-activity estimate — the paper's future work *)
  | Min_ops  (** raw post-CSE operator count *)

type options = {
  width : int;  (** datapath bit-width, for the area/delay model *)
  model : Cost.model;
  objective : objective;
  exhaustive_limit : int;
      (** combination count up to which the search is exhaustive *)
  sweeps : int;  (** coordinate-descent passes for large systems *)
  budget : (unit -> bool) option;
      (** "may another combination be evaluated?"  When it returns [false]
          the search stops early and keeps the best candidate found so far
          (the first candidate is always evaluated).  [None] = unlimited.
          The engine threads its shared time/candidate budget through
          here. *)
}

val default_options : width:int -> options
(** Objective defaults to [Min_area]; no budget. *)

val score : options -> Prog.t -> float array
(** The lexicographic objective key of a program under the options
    (exposed so that whole-system decompositions outside the
    representation search can compete on equal terms). *)

type selection = {
  prog : Prog.t;  (** chosen representations, with used block bindings *)
  labels : string list;  (** chosen representation label per polynomial *)
  cost : Cost.report;
  counts : Dag.counts;
  combinations_evaluated : int;
  exhaustive : bool;
  budget_exhausted : bool;
      (** the budget callback stopped the search before it finished *)
}

val prog_of_choice : Represent.t -> Represent.rep list -> Prog.t
(** Assemble a program from one representation per polynomial, including
    exactly the block bindings the expressions use. *)

val score_full : options -> Prog.t -> float array * Cost.report * Dag.counts
(** The key of {!score}, with the cost report and operator counts it was
    read from. *)

val choice_scorer :
  options -> Represent.t -> int array -> float array * Cost.report * Dag.counts
(** [choice_scorer options r] lowers every block binding and every
    representation of [r] into one hash-consed DAG.  The function it
    returns scores a choice (the index of one representation per
    polynomial) on the part of that DAG the choice reaches: the same key,
    report and counts as [score_full] of the choice's [prog_of_choice],
    without building that program.  Under [Min_power] it still builds the
    program and its netlist for the power term. *)

val select : options -> Represent.t -> selection
