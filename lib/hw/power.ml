module Z = Polysynth_zint.Zint

type report = {
  dynamic : float;
  leakage : float;
  total : float;
  per_cell_activity : float array;
}

(* Number of set bits of a non-negative int below 2^62 (SWAR: pair, nibble
   and byte sums, then one multiply adds the bytes into the top byte; every
   count fits its field, so nothing carries out of it). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Toggles per cell over [samples] transitions, on native ints.  The input
   stream is the one the Zint path draws: word_eval masks each sample to
   the width where the Zint path reduces it. *)
let word_toggles (n : Netlist.t) ~samples rng =
  let sim = Netlist.word_sim n in
  let inputs = Array.make (Array.length (Netlist.word_inputs sim)) 0 in
  let num_cells = Array.length n.Netlist.cells in
  let simulate values =
    for i = 0 to Array.length inputs - 1 do
      inputs.(i) <- Vectors.word rng
    done;
    Netlist.word_eval sim inputs values
  in
  let toggles = Array.make num_cells 0 in
  let prev = ref (Array.make num_cells 0) and cur = ref (Array.make num_cells 0) in
  simulate !prev;
  for _ = 1 to samples do
    simulate !cur;
    let p = !prev and c = !cur in
    for i = 0 to num_cells - 1 do
      toggles.(i) <- toggles.(i) + popcount (p.(i) lxor c.(i))
    done;
    prev := c;
    cur := p
  done;
  toggles

(* Hamming distance of two values in [0, 2^w), 62 bits at a time. *)
let word_base = Z.pow2 Netlist.max_word_width

let rec hamming_distance a b =
  if Z.is_zero a && Z.is_zero b then 0
  else
    let low z = Z.to_int_exn (Z.erem_pow2 z Netlist.max_word_width) in
    let high z = Z.div z word_base in
    popcount (low a lxor low b) + hamming_distance (high a) (high b)

(* The reference path, for any width: Zint simulation of every cell. *)
let zint_toggles (n : Netlist.t) ~samples rng =
  let inputs = Netlist.inputs n in
  let simulate () =
    let env = Vectors.assignment rng ~width:n.Netlist.width inputs in
    Netlist.cell_values n (fun v -> List.assoc v env)
  in
  let toggles = Array.make (Array.length n.Netlist.cells) 0 in
  let prev = ref (simulate ()) in
  for _ = 1 to samples do
    let current = simulate () in
    Array.iteri
      (fun i v -> toggles.(i) <- toggles.(i) + hamming_distance !prev.(i) v)
      current;
    prev := current
  done;
  toggles

let cell_area (model : Cost.model) width op =
  match op with
  | Netlist.Input _ | Netlist.Constant _ -> 0
  | Netlist.Negate -> model.Cost.neg_area width
  | Netlist.Add2 | Netlist.Sub2 -> model.Cost.add_area width
  | Netlist.Mult2 -> model.Cost.mult_area width
  | Netlist.Cmult c -> model.Cost.cmult_area width c
  | Netlist.Shl _ -> 0

let estimate ?(samples = 64) ?(seed = 1) (n : Netlist.t) =
  if samples < 1 then invalid_arg "Power.estimate: samples < 1";
  let w = n.Netlist.width in
  let rng = Vectors.make_rng seed in
  let toggles =
    if w <= Netlist.max_word_width then word_toggles n ~samples rng
    else zint_toggles n ~samples rng
  in
  let per_cell_activity =
    Array.map (fun t -> float_of_int t /. float_of_int samples) toggles
  in
  let model = Cost.default in
  let dynamic =
    Array.fold_left
      (fun acc cell ->
        acc
        +. per_cell_activity.(cell.Netlist.id)
           *. float_of_int (cell_area model w cell.Netlist.op))
      0.0 n.Netlist.cells
  in
  let total_area =
    Array.fold_left
      (fun acc cell -> acc + cell_area model w cell.Netlist.op)
      0 n.Netlist.cells
  in
  let leakage = 0.01 *. float_of_int total_area in
  { dynamic; leakage; total = dynamic +. leakage; per_cell_activity }

let pp_report fmt r =
  Format.fprintf fmt "power: dynamic=%.1f leakage=%.1f total=%.1f" r.dynamic
    r.leakage r.total
