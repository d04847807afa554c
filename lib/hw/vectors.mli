(** Deterministic random input vectors.

    One xorshift stream shared by {!Power}, {!Testbench} and {!Cemit}, so
    the power estimate, the Verilog testbench and the C self-check all
    draw the same vectors from the same seed.  Each sample is two 30-bit
    draws, [hi] then [lo], joined as [(hi lsl 30) lor lo]: a 60-bit value,
    so widths above 30 still get full-range inputs. *)

module Z := Polysynth_zint.Zint

type rng

val make_rng : int -> rng
(** A generator seeded with the given integer. *)

val word : rng -> int
(** The next raw 60-bit sample, in [[0, 2^60)].  Reduce it with
    [land ((1 lsl w) - 1)] for a [w]-bit operand. *)

val assignment : rng -> width:int -> string list -> (string * Z.t) list
(** One {!word} per name, drawn in list order and reduced into
    [[0, 2^width)]. *)
