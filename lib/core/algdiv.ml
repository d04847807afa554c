module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Shape = Polysynth_expr.Shape
module Kernel = Polysynth_cse.Kernel
module Squarefree = Polysynth_factor.Squarefree

(* A memo key carries its polynomial's hash, computed once per visit:
   lookups, inserts and table resizes then never rehash it, and a bucket
   collision is told apart by the hashes before any term is compared. *)
type key = { p : Poly.t; h : int }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b = a.h = b.h && Poly.equal a.p b.p
  let hash k = k.h
end)

(* A candidate form: its exact cost shape, and the expression, built only
   when the form is forced.  Candidates are compared on shapes, so a visit
   builds no expression; only the winners the root reaches are built, once,
   when [decompose] forces the root. *)
type node = { shape : Shape.t; expr : Expr.t Lazy.t }

(* The memo is keyed by the polynomial alone and lives for one session.
   Adding the recursion depth to the key, or sharing the memo across
   sessions, would change which decomposition wins.  [names.(i)] caches
   the block name of the [i]th divisor once this session has used it, and
   [lts.(i)] holds its leading term.  Lazies never leave their session, so
   sessions on separate domains never force the same one. *)
type session = {
  table : Blocktab.t;
  divs : Poly.t list;
  names : string option array;
  lts : (Z.t * Monomial.t) array;
  memo : node ref Memo.t;
}

let make_session table ~divisors =
  {
    table;
    divs = divisors;
    names = Array.make (List.length divisors) None;
    lts = Array.of_list (List.map Poly.leading divisors);
    memo = Memo.create 64;
  }

let divisors s = s.divs

let divisor_name s i d =
  match s.names.(i) with
  | Some name -> name
  | None ->
    let name = Blocktab.divisor_var s.table d in
    s.names.(i) <- Some name;
    name

let direct_node p = { shape = Shape.direct p; expr = lazy (Expr.of_poly p) }
let const_node c =
  { shape = Shape.const c; expr = Lazy.from_val (Expr.const c) }
let var_node v = { shape = Shape.var; expr = Lazy.from_val (Expr.var v) }

(* [op] over the operands' shapes; when the shapes do not determine the
   result, the expression is built now and its shape read off it *)
let combine shape_op expr_op operands =
  let build () = expr_op (List.map (fun n -> Lazy.force n.expr) operands) in
  match shape_op (List.map (fun n -> n.shape) operands) with
  | Some shape -> { shape; expr = lazy (build ()) }
  | None ->
    let e = build () in
    { shape = Shape.of_expr e; expr = Lazy.from_val e }

let add_node = combine Shape.add Expr.add
let mul_node = combine Shape.mul Expr.mul

(* the first candidate of least cost *)
let cheapest candidates =
  match candidates with
  | [] -> invalid_arg "Algdiv.cheapest: no candidates"
  | first :: rest ->
    List.fold_left
      (fun best cand ->
        if Shape.cost cand.shape < Shape.cost best.shape then cand else best)
      first rest

(* expression for a possibly non-normalized linear root: strip the content
   onto a constant factor and reference the divisor block *)
let root_expr s root =
  let n = Blocks.normalize root in
  if Blocks.is_linear n then begin
    let const_ratio =
      match Poly.div_exact root n with
      | Some c -> Poly.to_const_opt c
      | None -> None
    in
    match const_ratio with
    | Some c ->
      Expr.mul [ Expr.const c; Expr.var (Blocktab.divisor_var s.table n) ]
    | None -> Expr.of_poly root
  end
  else Expr.of_poly root

(* Recursion is bounded: a polynomial reached [max_depth] levels down is
   rendered directly.  Datapath polynomials are shallow, and without a
   bound the 6-divisor branching on random degree-4 systems visits
   thousands of intermediate polynomials, each paying a square-free
   factorization. *)
let max_depth = 4

let rec igcd a b = if b = 0 then a else igcd b (a mod b)
let exponent_gcd m = Monomial.fold (fun g _ e -> igcd g e) 0 m

(* Filter in front of the square-free factorization that looks for
   p = root^k with k >= 2.  Necessary conditions: p is not constant and
   has degree >= 2; under the graded-lex order, a monomial order,
   lm(root^k) = lm(root)^k and tm(root^k) = tm(root)^k for the leading and
   trailing monomials, so k divides every exponent of both.  Heuristics
   kept from the first implementation, which may reject a real power:
   [num_terms p <= 12] (so (x+y+z+1)^3, with 20 terms, never gets a power
   candidate), and the leading coefficient must be 1 or a perfect k-th
   power for some k in {2, 3, 5, 7} (which misses powers whose exponent
   has only prime factors of 11 or more, with a non-unit leading
   coefficient).  Last, and exact: a root found for k gives
   p(a) = root(a)^k at every point a, so for some k >= 2 dividing the
   exponent gcd above, p must evaluate to a k-th power at the fixed points
   of [Squarefree.power_at_points].  Most candidates fail there, before
   any square-free factorization. *)
let could_be_perfect_power p =
  (not (Poly.is_const p))
  && Poly.degree p >= 2
  && Poly.num_terms p <= 12
  &&
  let lc, lm = Poly.leading p in
  let g = exponent_gcd lm in
  g >= 2
  &&
  let _, tm = List.nth (Poly.terms p) (Poly.num_terms p - 1) in
  let g = igcd g (exponent_gcd tm) in
  g >= 2
  && (let lc = Z.abs lc in
      Z.is_one lc
      || List.exists
           (fun k -> Squarefree.integer_root lc k <> None)
           [ 2; 3; 5; 7 ])
  && List.exists
       (fun k -> g mod k = 0 && Squarefree.power_at_points k p)
       (List.init (g - 1) (fun i -> i + 2))

(* A constant (or zero) is its own direct form whatever the memo holds, so
   it skips the memo.  Otherwise the memo is filled with the direct form
   first, to break potential cycles defensively, and then overwritten with
   the winner; [visit] returns the cell's value, so a parent that reads a
   cell still in progress keeps the direct form. *)
let rec visit depth s p =
  if Poly.is_const p then direct_node p
  else begin
    let key = { p; h = Poly.hash p } in
    match Memo.find_opt s.memo key with
    | Some cell -> !cell
    | None ->
      let direct = direct_node p in
      let cell = ref direct in
      Memo.add s.memo key cell;
      let result = choose depth s p direct in
      cell := result;
      result
  end

(* The candidates are visited in a fixed order, which the explicit [let]s
   below keep: a visit can register blocks and fill the memo, so the order
   decides what later visits find.  It is content, power, then the
   divisions in divisor order (each naming its divisor first, then
   visiting the remainder before the quotient), CCE (the residual before
   the groups), and the kernel form (the rest before the kernel). *)
and choose depth s p direct =
  let deeper = visit (depth + 1) s in
  let reducible_by i =
    let cd, md = s.lts.(i) in
    List.exists
      (fun (c, m) -> Monomial.divides md m && Z.divides cd c)
      (Poly.terms p)
  in
  let content_candidate =
    (* p = c * primitive_part p, c carrying the leading coefficient's sign *)
    let c = Poly.content p in
    let c = if Z.is_negative (fst (Poly.leading p)) then Z.neg c else c in
    if Z.is_one (Z.abs c) || Poly.num_terms p < 2 then []
    else [ mul_node [ const_node c; deeper (Poly.div_scalar_exact p c) ] ]
  in
  let power_candidate =
    if not (could_be_perfect_power p) then []
    else
      match Squarefree.perfect_power_root p with
      | Some (root, k) when not (Poly.is_const root) ->
        let e = Expr.pow (root_expr s root) k in
        [ { shape = Shape.of_expr e; expr = Lazy.from_val e } ]
      | Some _ | None -> []
  in
  let structural_candidates =
    if depth >= max_depth then []
    else begin
      let division_candidate i d =
        (* no term of p reducible by lt(d): div_rem would return q = 0 *)
        if not (reducible_by i) then None
        else begin
          let q, r = Poly.div_rem p d in
          if Poly.is_zero q then None
          else begin
            let dv = divisor_name s i d in
            let r = deeper r in
            let q = deeper q in
            Some (add_node [ mul_node [ var_node dv; q ]; r ])
          end
        end
      in
      let rec division_candidates i = function
        | [] -> []
        | d :: ds ->
          (match division_candidate i d with
           | Some c -> c :: division_candidates (i + 1) ds
           | None -> division_candidates (i + 1) ds)
      in
      let division_candidates = division_candidates 0 s.divs in
      let cce_candidate =
        let r = Cce.extract p in
        match r.Cce.groups with
        | [] -> []
        | groups ->
          let residual = deeper r.Cce.residual in
          let groups =
            List.map (fun (g, b) -> mul_node [ const_node g; deeper b ]) groups
          in
          [ add_node (groups @ [ residual ]) ]
      in
      let kernel_candidate =
        let score ck k = Poly.num_terms k * Monomial.degree ck in
        match Kernel.best_kernel ~score p with
        | None -> []
        | Some (ck, k) ->
          let rest = deeper (Poly.sub p (Poly.mul_term Z.one ck k)) in
          let k = deeper k in
          [ add_node [ mul_node [ direct_node (Poly.monomial ck); k ]; rest ] ]
      in
      division_candidates @ cce_candidate @ kernel_candidate
    end
  in
  cheapest
    ((direct :: content_candidate) @ power_candidate @ structural_candidates)

let decompose ?(depth = 0) s p = Lazy.force (visit depth s p).expr
