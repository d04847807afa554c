module Z = Polysynth_zint.Zint
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog

type op =
  | Input of string
  | Constant of Z.t
  | Negate
  | Add2
  | Sub2
  | Mult2
  | Cmult of Z.t
  | Shl of int

type cell = { id : int; op : op; fanin : int list }

type t = {
  cells : cell array;
  outputs : (string * int) list;
  width : int;
}

let of_dag ~width dag ~outputs =
  let roots = List.map snd outputs in
  let live = Dag.live dag ~roots in
  (* first pass: which constants survive as real cells? a constant feeding
     only multiplications is folded into Cmult cells *)
  let const_of i =
    match Dag.node dag i with Dag.Nconst c -> Some c | _ -> None
  in
  let const_needed = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match Dag.node dag i with
      | Dag.Nconst _ | Dag.Nvar _ -> ()
      | Dag.Nneg a -> (
          match const_of a with
          | Some _ -> Hashtbl.replace const_needed a ()
          | None -> ())
      | Dag.Nadd (a, b) | Dag.Nsub (a, b) ->
        List.iter
          (fun x ->
            match const_of x with
            | Some _ -> Hashtbl.replace const_needed x ()
            | None -> ())
          [ a; b ]
      | Dag.Nmul (a, b) -> (
          (* a multiplication with exactly one constant operand becomes a
             Cmult cell that embeds the value; only a (degenerate) product
             of two constants keeps its operands as cells *)
          match const_of a, const_of b with
          | Some _, Some _ ->
            Hashtbl.replace const_needed a ();
            Hashtbl.replace const_needed b ()
          | _ -> ()))
    live;
  List.iter
    (fun (_, r) ->
      match const_of r with
      | Some _ -> Hashtbl.replace const_needed r ()
      | None -> ())
    outputs;
  let id_map = Hashtbl.create 64 in
  let cells = ref [] in
  let next = ref 0 in
  let emit op fanin =
    let id = !next in
    incr next;
    cells := { id; op; fanin } :: !cells;
    id
  in
  List.iter
    (fun i ->
      let skip_const =
        match const_of i with
        | Some _ -> not (Hashtbl.mem const_needed i)
        | None -> false
      in
      if not skip_const then begin
        let resolve j = Hashtbl.find id_map j in
        let cell_id =
          match Dag.node dag i with
          | Dag.Nconst c -> emit (Constant c) []
          | Dag.Nvar v -> emit (Input v) []
          | Dag.Nneg a -> emit Negate [ resolve a ]
          | Dag.Nadd (a, b) -> emit Add2 [ resolve a; resolve b ]
          | Dag.Nsub (a, b) -> emit Sub2 [ resolve a; resolve b ]
          | Dag.Nmul (a, b) -> (
              match const_of a, const_of b with
              | Some ca, None -> emit (Cmult ca) [ resolve b ]
              | None, Some cb -> emit (Cmult cb) [ resolve a ]
              | Some _, Some _ | None, None ->
                emit Mult2 [ resolve a; resolve b ])
        in
        Hashtbl.replace id_map i cell_id
      end)
    live;
  {
    cells = Array.of_list (List.rev !cells);
    outputs = List.map (fun (n, r) -> (n, Hashtbl.find id_map r)) outputs;
    width;
  }

let of_prog ~width prog =
  let dag, roots = Prog.to_dag prog in
  of_dag ~width dag ~outputs:roots

let num_cells n = Array.length n.cells

let op_to_string = function
  | Input v -> Printf.sprintf "input %s" v
  | Constant c -> Z.to_string c
  | Negate -> "neg"
  | Add2 -> "add"
  | Sub2 -> "sub"
  | Mult2 -> "mul"
  | Cmult c -> Printf.sprintf "cmult %s" (Z.to_string c)
  | Shl k -> Printf.sprintf "shl %d" k

let inputs n =
  Array.to_list n.cells
  |> List.filter_map (fun c ->
         match c.op with Input v -> Some v | _ -> None)
  |> List.sort_uniq String.compare

(* Wrap-around reduction mod 2^width is a ring homomorphism for +, - and
   *, so a program that skips the per-cell clamping still computes the
   same outputs once those are reduced mod 2^width.  That makes the
   program below a faithful (ring-semantics) model of the netlist, which
   is what lets Equiv certify netlist rewrites. *)
let to_prog n =
  let module Expr = Polysynth_expr.Expr in
  let ins = inputs n in
  (* binding names must not collide with (or shadow) input variables *)
  let prefix =
    let rec grow p =
      if
        List.exists
          (fun v ->
            String.length v >= String.length p
            && String.equal (String.sub v 0 (String.length p)) p)
          ins
      then grow (p ^ "_")
      else p
    in
    grow "c"
  in
  let exprs = Array.make (Array.length n.cells) Expr.zero in
  let bindings = ref [] in
  Array.iter
    (fun cell ->
      let arg k = exprs.(List.nth cell.fanin k) in
      let name = prefix ^ string_of_int cell.id in
      let bind e =
        bindings := (name, e) :: !bindings;
        Expr.var name
      in
      let e =
        match cell.op with
        | Input v -> Expr.var v
        | Constant c -> Expr.const c
        | Negate -> bind (Expr.neg (arg 0))
        | Add2 -> bind (Expr.add [ arg 0; arg 1 ])
        | Sub2 -> bind (Expr.sub (arg 0) (arg 1))
        | Mult2 -> bind (Expr.mul [ arg 0; arg 1 ])
        | Cmult c -> bind (Expr.mul [ Expr.const c; arg 0 ])
        | Shl k -> bind (Expr.mul [ Expr.const (Z.pow2 k); arg 0 ])
      in
      exprs.(cell.id) <- e)
    n.cells;
  {
    Prog.bindings = List.rev !bindings;
    outputs = List.map (fun (nm, id) -> (nm, exprs.(id))) n.outputs;
  }

let cell_values n env =
  let values = Array.make (Array.length n.cells) Z.zero in
  let clamp v = Z.erem_pow2 v n.width in
  Array.iter
    (fun cell ->
      let arg k = values.(List.nth cell.fanin k) in
      let v =
        match cell.op with
        | Input v -> env v
        | Constant c -> c
        | Negate -> Z.neg (arg 0)
        | Add2 -> Z.add (arg 0) (arg 1)
        | Sub2 -> Z.sub (arg 0) (arg 1)
        | Mult2 -> Z.mul (arg 0) (arg 1)
        | Cmult c -> Z.mul c (arg 0)
        | Shl k -> Z.mul (Z.pow2 k) (arg 0)
      in
      values.(cell.id) <- clamp v)
    n.cells;
  values

let eval n env =
  let values = cell_values n env in
  List.map (fun (name, id) -> (name, values.(id))) n.outputs

(* Word-level simulation.  A value reduced mod 2^w with w <= 62 is a
   non-negative native int, and native +, - and * wrap mod 2^63, whose low
   w bits are the bit-vector result; so masking after every cell gives
   exactly [cell_values].  Constants and Cmult factors are reduced once
   here, and a shift by k >= w is the constant 0 (native [lsl] by 63 or
   more is unspecified). *)

let max_word_width = 62

type word_op =
  | Wconst of int
  | Winput of int (* index into the input vector *)
  | Wneg of int
  | Wadd of int * int
  | Wsub of int * int
  | Wmul of int * int
  | Wcmult of int * int (* reduced factor, operand *)
  | Wshl of int * int (* shift amount below the width, operand *)

type word_sim = {
  mask : int;
  word_inputs : string array;
  dst : int array; (* cell id written by each op *)
  ops : word_op array;
}

let word_sim n =
  if n.width > max_word_width then
    invalid_arg "Netlist.word_sim: width exceeds 62 bits";
  let reduce c = Z.to_int_exn (Z.erem_pow2 c n.width) in
  let word_inputs = Array.of_list (inputs n) in
  let input_index = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace input_index v i) word_inputs;
  let compile cell =
    match cell.op, cell.fanin with
    | Input v, _ -> Winput (Hashtbl.find input_index v)
    | Constant c, _ -> Wconst (reduce c)
    | Negate, a :: _ -> Wneg a
    | Add2, a :: b :: _ -> Wadd (a, b)
    | Sub2, a :: b :: _ -> Wsub (a, b)
    | Mult2, a :: b :: _ -> Wmul (a, b)
    | Cmult c, a :: _ -> Wcmult (reduce c, a)
    | Shl k, _ :: _ when k >= n.width -> Wconst 0
    | Shl k, a :: _ -> Wshl (k, a)
    | (Negate | Add2 | Sub2 | Mult2 | Cmult _ | Shl _), _ ->
      invalid_arg "Netlist.word_sim: missing fan-in"
  in
  {
    mask = (1 lsl n.width) - 1;
    word_inputs;
    dst = Array.map (fun cell -> cell.id) n.cells;
    ops = Array.map compile n.cells;
  }

let word_inputs s = s.word_inputs

let word_eval s inputs values =
  let mask = s.mask in
  for i = 0 to Array.length s.ops - 1 do
    let v =
      match s.ops.(i) with
      | Wconst c -> c
      | Winput j -> inputs.(j)
      | Wneg a -> - values.(a)
      | Wadd (a, b) -> values.(a) + values.(b)
      | Wsub (a, b) -> values.(a) - values.(b)
      | Wmul (a, b) -> values.(a) * values.(b)
      | Wcmult (c, a) -> c * values.(a)
      | Wshl (k, a) -> values.(a) lsl k
    in
    values.(s.dst.(i)) <- v land mask
  done
