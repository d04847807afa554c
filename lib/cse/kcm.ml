module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Shape = Polysynth_expr.Shape

module IntSet = Set.Make (Int)

type cube = Z.t * Monomial.t

let cube_compare (c1, m1) (c2, m2) =
  let c = Monomial.compare m1 m2 in
  if c <> 0 then c else Z.compare c1 c2

module CubeMap = Map.Make (struct
  type t = cube

  let compare = cube_compare
end)

type t = {
  rows : (Monomial.t * Poly.t) array;  (** co-kernel, kernel *)
  row_cols : IntSet.t array;  (** column indices present in each row *)
  col_rows : IntSet.t array;  (** row indices holding each column *)
  cols : cube array;
}

let of_kernels instances =
  let rows = Array.of_list instances in
  (* assign column indices to distinct cubes *)
  let col_index = ref CubeMap.empty in
  let next = ref 0 in
  let index_of cube =
    match CubeMap.find_opt cube !col_index with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      col_index := CubeMap.add cube i !col_index;
      i
  in
  let row_cols =
    Array.map
      (fun (_, kernel) ->
        List.fold_left
          (fun acc (c, m) -> IntSet.add (index_of (c, m)) acc)
          IntSet.empty (Poly.terms kernel))
      rows
  in
  let cols = Array.make !next (Z.zero, Monomial.one) in
  CubeMap.iter (fun cube i -> cols.(i) <- cube) !col_index;
  let col_rows = Array.make !next IntSet.empty in
  Array.iteri
    (fun r rc ->
      IntSet.iter (fun c -> col_rows.(c) <- IntSet.add r col_rows.(c)) rc)
    row_cols;
  { rows; row_cols; col_rows; cols }

let build polys = of_kernels (List.concat_map Kernel.kernels polys)

let num_rows t = Array.length t.rows
let num_cols t = Array.length t.cols

let row_kernel t i =
  if i < 0 || i >= Array.length t.rows then
    invalid_arg "Kcm.row_kernel: out of range";
  t.rows.(i)

type rectangle = { rows : int list; body : Poly.t; value : int }

let body_of_cols t cols =
  Poly.of_terms (List.map (fun i -> t.cols.(i)) (IntSet.elements cols))

let rows_of_cols t cols =
  (* all rows whose column set contains [cols] (not empty), in increasing
     order *)
  IntSet.elements
    (IntSet.fold
       (fun c acc -> IntSet.inter acc t.col_rows.(c))
       cols
       t.col_rows.(IntSet.min_elt cols))

let cols_of_rows t rows =
  match rows with
  | [] -> IntSet.empty
  | first :: rest ->
    List.fold_left
      (fun acc i -> IntSet.inter acc t.row_cols.(i))
      t.row_cols.(first) rest

let rectangle_of_cols t cols =
  (* close under the Galois connection: rows of cols, then cols of rows *)
  let rows = rows_of_cols t cols in
  let cols = cols_of_rows t rows in
  (rows, cols)

let value_of t rows cols =
  let body = body_of_cols t cols in
  let ops = Shape.cost (Shape.direct body) in
  (List.length rows - 1) * ops

(* Rectangle keys (rows, columns) hashed on their ints alone. *)
module Key = Hashtbl.Make (struct
  type t = int list * int list

  let equal (r, c) (r', c') = List.equal Int.equal r r' && List.equal Int.equal c c'

  let hash (r, c) =
    let mix acc i = (acc * 31) + i in
    List.fold_left mix (List.fold_left mix 17 r) c land max_int
end)

let prime_rectangles ?(max_rectangles = 64) t =
  let seen = Key.create 64 in
  let out = ref [] in
  let consider cols =
    if IntSet.cardinal cols >= 2 then begin
      let rows, cols = rectangle_of_cols t cols in
      if List.length rows >= 2 && IntSet.cardinal cols >= 2 then begin
        let key = (rows, IntSet.elements cols) in
        if not (Key.mem seen key) then begin
          Key.add seen key ();
          let body = body_of_cols t cols in
          out := { rows; body; value = value_of t rows cols } :: !out
        end
      end
    end
  in
  let n = Array.length t.row_cols in
  for i = 0 to n - 1 do
    consider t.row_cols.(i)
  done;
  (* only the pairs i < j sharing at least two columns can seed a
     rectangle: count the shared columns through [col_rows], then visit
     those j in increasing order, as a scan of every pair would *)
  let shared = Array.make n 0 in
  for i = 0 to n - 1 do
    let touched = ref [] in
    IntSet.iter
      (fun c ->
        Seq.iter
          (fun j ->
            if shared.(j) = 0 then touched := j :: !touched;
            shared.(j) <- shared.(j) + 1)
          (IntSet.to_seq_from (i + 1) t.col_rows.(c)))
      t.row_cols.(i);
    List.iter
      (fun j ->
        if shared.(j) >= 2 then
          consider (IntSet.inter t.row_cols.(i) t.row_cols.(j));
        shared.(j) <- 0)
      (List.sort Int.compare !touched)
  done;
  let ranked =
    List.stable_sort (fun a b -> Stdlib.compare b.value a.value) !out
  in
  List.filteri (fun i _ -> i < max_rectangles) ranked

let bodies ?max_rectangles t =
  let rects = prime_rectangles ?max_rectangles t in
  let rec dedup seen = function
    | [] -> []
    | r :: rest ->
      if List.exists (Poly.equal r.body) seen then dedup seen rest
      else r.body :: dedup (r.body :: seen) rest
  in
  dedup [] rects
