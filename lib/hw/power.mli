(** Switching-activity power estimation — the paper's stated future work
    ("we would like to investigate the use of algebraic transformations in
    low-power synthesis of arithmetic datapaths").

    Dynamic power of a cell is modelled as (toggle activity of its output)
    x (its area, as a capacitance proxy).  Activity is measured by
    bit-accurate simulation of the netlist on a deterministic stream of
    random input vectors ({!Vectors}): for consecutive vectors, the
    Hamming distance of each cell's output value is accumulated.
    Deterministic in the seed.

    For [width <= ]{!Netlist.max_word_width} (62) the simulation runs on
    native ints ({!Netlist.word_eval}): each input is the generator's
    sample masked to the width, and a cell's toggles are the popcount of
    [prev lxor cur].  This is exact, not an approximation: a value reduced
    mod [2^width] fits a native int, native [+], [-] and [*] wrap mod
    [2^63] and so keep the low [width] bits of the bit-vector result, and
    masking a sample gives the same value as reducing it.  The report is
    therefore bit-for-bit the one the [Zint] simulation
    ({!Netlist.cell_values}) gives, which is the path wider netlists
    take. *)

type report = {
  dynamic : float;  (** sum over cells of activity x area, in
                        gate-equivalent toggle units *)
  leakage : float;  (** proportional to total area *)
  total : float;
  per_cell_activity : float array;  (** average toggles per transition,
                                        indexed by cell id *)
}

val estimate : ?samples:int -> ?seed:int -> Netlist.t -> report
(** [samples] (default 64) is the number of input transitions simulated;
    [seed] (default 1) drives the deterministic input generator. *)

val pp_report : Format.formatter -> report -> unit
