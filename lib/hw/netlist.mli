(** Operator-level netlists.

    A netlist is the hardware view of an expression DAG: one cell per live
    operator, with constant multiplications classified separately (they
    synthesize to shift-add networks, much cheaper than a general
    multiplier).  The cost model and the Verilog emitter both work from this
    representation, mirroring the paper's hand-off of each decomposition to
    Synopsys Design Compiler. *)

module Z := Polysynth_zint.Zint
module Dag := Polysynth_expr.Dag

type op =
  | Input of string
  | Constant of Z.t
  | Negate
  | Add2
  | Sub2
  | Mult2  (** general multiplier *)
  | Cmult of Z.t  (** multiplication by a constant *)
  | Shl of int  (** left shift by a constant amount: free wiring *)

type cell = { id : int; op : op; fanin : int list }

type t = {
  cells : cell array;  (** topologically ordered: fanin ids precede users *)
  outputs : (string * int) list;
  width : int;  (** operand bit-width *)
}

val of_dag : width:int -> Dag.t -> outputs:(string * Dag.id) list -> t
(** Keep only the nodes reachable from the outputs; multiplications with a
    constant operand become [Cmult] cells (the constant cell itself is kept
    only if some other cell still reads it). *)

val of_prog : width:int -> Polysynth_expr.Prog.t -> t

val num_cells : t -> int
val inputs : t -> string list

val op_to_string : op -> string

val to_prog : t -> Polysynth_expr.Prog.t
(** Lift the netlist back into a straight-line program: one binding per
    operator cell (inputs and constants are inlined), outputs preserved
    by name and order.  Binding names are chosen so they cannot shadow an
    input variable.  Because reduction mod [2^width] is a ring
    homomorphism for [+], [-] and [*], the program denotes the same
    outputs as {!eval} once results are reduced mod [2^width] — this is
    what lets {!Polysynth_analysis.Equiv} certify netlist rewrites. *)

val cell_values : t -> (string -> Z.t) -> Z.t array
(** Bit-accurate evaluation of every cell, indexed by cell id: each cell
    result is reduced into [[0, 2^width)] (wrap-around bit-vector
    arithmetic).  Works at any width; it is the reference for
    {!word_eval}. *)

val eval : t -> (string -> Z.t) -> (string * Z.t) list
(** The outputs of {!cell_values}, by name and in order. *)

(** {2 Word-level simulation}

    For [width <= 62] a reduced value is a non-negative native int.
    Native [+], [-] and [*] wrap mod [2^63], and [2^width] divides
    [2^63], so the low [width] bits of the native result are exactly the
    bit-vector result: masking with [2^width - 1] after every cell gives
    the same values as {!cell_values}.  Constants and [Cmult] factors are
    reduced mod [2^width] once per netlist, and [Shl k] with
    [k >= width] is the constant 0. *)

val max_word_width : int
(** 62, the widest netlist {!word_sim} accepts. *)

type word_sim
(** A netlist prepared for word-level simulation: reduced constants and
    fan-in arrays, built once and reused for every input vector. *)

val word_sim : t -> word_sim
(** @raise Invalid_argument when the width exceeds {!max_word_width}. *)

val word_inputs : word_sim -> string array
(** The input names in the order {!word_eval} reads them: {!inputs}. *)

val word_eval : word_sim -> int array -> int array -> unit
(** [word_eval s inputs values] simulates one input vector without
    allocating.  [inputs.(i)] is the value of [(word_inputs s).(i)] (it is
    masked to the width); [values], of length {!num_cells}, receives every
    cell's value indexed by cell id, equal to {!cell_values} converted to
    ints. *)
