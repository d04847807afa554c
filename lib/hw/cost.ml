module Z = Polysynth_zint.Zint

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
      (** extra delay per additional load on a cell's output: the wire and
          input-capacitance cost of sharing a sub-expression widely *)
}

(* non-adjacent form: digits in {-1, 0, 1}, no two adjacent non-zero *)
let csd_digits c =
  let rec go n acc =
    if Z.is_zero n then acc
    else if Z.is_even n then go (Z.div n Z.two) acc
    else begin
      (* n odd: digit is 2 - (n mod 4), i.e. +1 or -1 *)
      let m4 = Z.to_int_exn (Z.erem_pow2 n 2) in
      let d = if m4 = 1 then Z.one else Z.minus_one in
      go (Z.div (Z.sub n d) Z.two) (acc + 1)
    end
  in
  go (Z.abs c) 0

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  if n <= 1 then 0 else go 0 1

let default =
  {
    (* array multiplier: ~m*m full-adder cells at ~6 gate equivalents *)
    mult_area = (fun m -> 6 * m * m);
    (* CSD shift-add network: (digits - 1) adders; shifts are wiring *)
    cmult_area =
      (fun m c ->
        let d = csd_digits c in
        if d <= 1 then 0 else (d - 1) * 7 * m);
    (* carry-lookahead adder *)
    add_area = (fun m -> 7 * m);
    (* two's-complement negation: inverters plus increment *)
    neg_area = (fun m -> 2 * m);
    (* array multiplier critical path ~ 2m full adders *)
    mult_delay = (fun m -> 0.8 *. float_of_int (2 * m));
    cmult_delay =
      (fun m c ->
        let d = csd_digits c in
        if d <= 1 then 0.0
        else
          float_of_int (log2_ceil d)
          *. (1.0 +. (0.35 *. float_of_int (log2_ceil m))));
    add_delay = (fun m -> 1.0 +. (0.35 *. float_of_int (log2_ceil m)));
    neg_delay = (fun m -> 0.5 +. (0.2 *. float_of_int (log2_ceil m)));
    fanout_delay = 0.7;
  }

type report = {
  area : int;
  delay : float;
  num_mults : int;
  num_cmults : int;
  num_adds : int;
}

let total_operators r = r.num_mults + r.num_cmults + r.num_adds

let of_netlist ?(model = default) (n : Netlist.t) =
  let m = n.Netlist.width in
  let num_cells = Array.length n.Netlist.cells in
  let arrival = Array.make num_cells 0.0 in
  let fanout = Array.make num_cells 0 in
  Array.iter
    (fun cell ->
      List.iter
        (fun i -> fanout.(i) <- fanout.(i) + 1)
        cell.Netlist.fanin)
    n.Netlist.cells;
  let report = ref { area = 0; delay = 0.0; num_mults = 0; num_cmults = 0; num_adds = 0 } in
  Array.iter
    (fun cell ->
      let open Netlist in
      let fanin_arrival =
        List.fold_left
          (fun acc i -> Float.max acc arrival.(i))
          0.0 cell.fanin
      in
      let cell_area, cell_delay, kind =
        match cell.op with
        | Input _ | Constant _ -> (0, 0.0, `Free)
        | Negate -> (model.neg_area m, model.neg_delay m, `Free)
        | Add2 | Sub2 -> (model.add_area m, model.add_delay m, `Add)
        | Mult2 -> (model.mult_area m, model.mult_delay m, `Mult)
        | Cmult c -> (model.cmult_area m c, model.cmult_delay m c, `Cmult)
        | Shl _ -> (0, 0.0, `Free)
      in
      let load =
        model.fanout_delay *. float_of_int (Stdlib.max 0 (fanout.(cell.id) - 1))
      in
      arrival.(cell.id) <- fanin_arrival +. cell_delay +. load;
      let r = !report in
      report :=
        {
          area = r.area + cell_area;
          delay = Float.max r.delay arrival.(cell.id);
          num_mults = (r.num_mults + match kind with `Mult -> 1 | _ -> 0);
          num_cmults = (r.num_cmults + match kind with `Cmult -> 1 | _ -> 0);
          num_adds = (r.num_adds + match kind with `Add -> 1 | _ -> 0);
        })
    n.Netlist.cells;
  !report

let of_prog ?model ~width prog =
  of_netlist ?model (Netlist.of_prog ~width prog)

(* Scoring many root sets of one DAG: the cell each node lowers to under
   [Netlist.of_dag] depends on the node alone, so its fanins, area, delay
   and kind are tabulated once.  What depends on the roots (the cells
   reached, fanout, arrival) lives in arrays reused from one call to the
   next: a node is reached in the current call when its [mark] equals
   [gen]. *)
module Dag = Polysynth_expr.Dag

type kind = Free | Adder | Multiplier | Const_multiplier | Const_product

type scorer = {
  dag : Dag.t;
  fanin_a : int array;  (* cell fanins, -1 when absent *)
  fanin_b : int array;
  cell_kind : kind array;
  cell_area : int array;
  cell_delay : float array;
  fanout_delay : float;
  mark : int array;
  fanout : int array;
  arrival : float array;
  order : int array;  (* the cells of the current call, fanins first *)
  mutable cells : int;
  mutable gen : int;
}

let scorer ?(model = default) ~width dag =
  let m = width in
  let size = Dag.num_nodes dag in
  let fanin_a = Array.make size (-1) and fanin_b = Array.make size (-1) in
  let kind = Array.make size Free in
  let area = Array.make size 0 and delay = Array.make size 0.0 in
  let cell i ?(a = -1) ?(b = -1) k cell_area cell_delay =
    fanin_a.(i) <- a;
    fanin_b.(i) <- b;
    kind.(i) <- k;
    area.(i) <- cell_area;
    delay.(i) <- cell_delay
  in
  let const_of j =
    match Dag.node dag j with Dag.Nconst c -> Some c | _ -> None
  in
  Dag.iteri
    (fun i node ->
      let i = (i :> int) in
      match node with
      | Dag.Nconst _ | Dag.Nvar _ -> ()
      | Dag.Nneg a ->
        cell i ~a:(a :> int) Free (model.neg_area m) (model.neg_delay m)
      | Dag.Nadd (a, b) | Dag.Nsub (a, b) ->
        cell i ~a:(a :> int) ~b:(b :> int) Adder (model.add_area m)
          (model.add_delay m)
      | Dag.Nmul (a, b) -> (
        (* as in [Netlist.of_dag]: one constant operand is embedded in a
           Cmult cell, a product of two constants keeps both as fanins *)
        let mult k =
          cell i ~a:(a :> int) ~b:(b :> int) k (model.mult_area m)
            (model.mult_delay m)
        in
        let cmult c (x : Dag.id) =
          cell i ~a:(x :> int) Const_multiplier (model.cmult_area m c)
            (model.cmult_delay m c)
        in
        match const_of a, const_of b with
        | Some _, Some _ -> mult Const_product
        | Some c, None -> cmult c b
        | None, Some c -> cmult c a
        | None, None -> mult Multiplier))
    dag;
  {
    dag;
    fanin_a;
    fanin_b;
    cell_kind = kind;
    cell_area = area;
    cell_delay = delay;
    fanout_delay = model.fanout_delay;
    mark = Array.make size 0;
    fanout = Array.make size 0;
    arrival = Array.make size 0.0;
    order = Array.make size 0;
    cells = 0;
    gen = 0;
  }

(* depth-first through cell fanins, so [order] lists every cell after its
   fanins, and a constant read only by one-constant products is never
   reached, as in [Netlist.of_dag] *)
let rec visit s i =
  if s.mark.(i) <> s.gen then begin
    s.mark.(i) <- s.gen;
    s.fanout.(i) <- 0;
    let a = s.fanin_a.(i) and b = s.fanin_b.(i) in
    if a >= 0 then begin
      visit s a;
      s.fanout.(a) <- s.fanout.(a) + 1
    end;
    if b >= 0 then begin
      visit s b;
      s.fanout.(b) <- s.fanout.(b) + 1
    end;
    s.order.(s.cells) <- i;
    s.cells <- s.cells + 1
  end

let score s roots =
  if Dag.num_nodes s.dag <> Array.length s.mark then
    invalid_arg "Cost.score: the DAG grew after its scorer was made";
  s.gen <- s.gen + 1;
  s.cells <- 0;
  for k = 0 to Array.length roots - 1 do
    visit s (roots.(k) : Dag.id :> int)
  done;
  (* an arrival depends only on the arrivals of the cell's fanins, so
     this order, fanins first, gives the same floats as [of_netlist]'s
     cell order *)
  let area = ref 0 and delay = ref 0.0 in
  let mults = ref 0 and cmults = ref 0 and adds = ref 0 and const_mults = ref 0 in
  for k = 0 to s.cells - 1 do
    let i = s.order.(k) in
    let a = s.fanin_a.(i) and b = s.fanin_b.(i) in
    let fanin = if a >= 0 then Float.max 0.0 s.arrival.(a) else 0.0 in
    let fanin = if b >= 0 then Float.max fanin s.arrival.(b) else fanin in
    let load =
      s.fanout_delay *. float_of_int (Stdlib.max 0 (s.fanout.(i) - 1))
    in
    let t = fanin +. s.cell_delay.(i) +. load in
    s.arrival.(i) <- t;
    area := !area + s.cell_area.(i);
    delay := Float.max !delay t;
    match s.cell_kind.(i) with
    | Free -> ()
    | Adder -> incr adds
    | Multiplier -> incr mults
    | Const_multiplier -> incr cmults; incr const_mults
    | Const_product -> incr mults; incr const_mults
  done;
  ( {
      area = !area;
      delay = !delay;
      num_mults = !mults;
      num_cmults = !cmults;
      num_adds = !adds;
    },
    Dag.{ mults = !mults + !cmults; const_mults = !const_mults; adds = !adds } )

let pp_report fmt r =
  Format.fprintf fmt
    "area=%d delay=%.1f (mult=%d cmult=%d add=%d)"
    r.area r.delay r.num_mults r.num_cmults r.num_adds
