module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Kernel = Polysynth_cse.Kernel
module Squarefree = Polysynth_factor.Squarefree

(* A memo key carries its polynomial's hash, computed once per visit:
   lookups, inserts and table resizes then never rehash it. *)
type key = { p : Poly.t; h : int }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b = Poly.equal a.p b.p
  let hash k = k.h
end)

(* The memo is keyed by the polynomial alone and lives for one session.
   Adding the recursion depth to the key, or sharing the memo across
   sessions, would change which decomposition wins.  [names.(i)] caches
   the block name of the [i]th divisor once this session has used it. *)
type session = {
  table : Blocktab.t;
  divs : Poly.t list;
  names : string option array;
  memo : Expr.t ref Memo.t;
}

let make_session table ~divisors =
  {
    table;
    divs = divisors;
    names = Array.make (List.length divisors) None;
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

let cost e = Dag.total_ops (Dag.tree_counts e)

(* the first candidate of least cost, each candidate costed once *)
let cheapest candidates =
  match candidates with
  | [] -> invalid_arg "Algdiv.cheapest: no candidates"
  | first :: rest ->
    fst
      (List.fold_left
         (fun (best, best_cost) cand ->
           let c = cost cand in
           if c < best_cost then (cand, c) else (best, best_cost))
         (first, cost first) rest)

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

(* cheap necessary conditions for p = root^k with k >= 2: under the
   graded-lex order lm(root^k) = lm(root)^k, so the exponents of the
   leading monomial share a factor k, and the leading coefficient must
   itself be a perfect power *)
let could_be_perfect_power p =
  (not (Poly.is_const p))
  && Poly.degree p >= 2
  && Poly.num_terms p <= 12
  &&
  let lc, lm = Poly.leading p in
  let rec igcd a b = if b = 0 then a else igcd b (a mod b) in
  Monomial.fold (fun g _ e -> igcd g e) 0 lm >= 2
  &&
  let lc = Z.abs lc in
  Z.is_one lc
  || List.exists
       (fun k -> Squarefree.integer_root lc k <> None)
       [ 2; 3; 5; 7 ]

let rec decompose ?(depth = 0) s p =
  let key = { p; h = Poly.hash p } in
  match Memo.find_opt s.memo key with
  | Some cell -> !cell
  | None ->
    (* break potential cycles defensively: memoize the direct form first,
       then overwrite it with the winner *)
    let direct = Expr.of_poly p in
    let cell = ref direct in
    Memo.add s.memo key cell;
    let result = choose depth s p direct in
    cell := result;
    result

and choose depth s p direct =
  if Poly.is_zero p || Poly.is_const p then direct
  else begin
    let deeper = decompose ~depth:(depth + 1) s in
    let reducible_by d =
      let cd, md = Poly.leading d in
      List.exists
        (fun (c, m) -> Monomial.divides md m && Z.divides cd c)
        (Poly.terms p)
    in
    let content_candidate =
      (* p = c * primitive_part p, c carrying the leading coefficient's sign *)
      let c = Poly.content p in
      let c = if Z.is_negative (fst (Poly.leading p)) then Z.neg c else c in
      if Z.is_one (Z.abs c) || Poly.num_terms p < 2 then []
      else [ Expr.mul [ Expr.const c; deeper (Poly.div_scalar_exact p c) ] ]
    in
    let power_candidate =
      if not (could_be_perfect_power p) then []
      else
        match Squarefree.perfect_power_root p with
        | Some (root, k) when not (Poly.is_const root) ->
          [ Expr.pow (root_expr s root) k ]
        | Some _ | None -> []
    in
    let structural_candidates =
      if depth >= max_depth then []
      else begin
        let division_candidate i d =
          (* no term of p reducible by lt(d): div_rem would return q = 0 *)
          if not (reducible_by d) then None
          else begin
            let q, r = Poly.div_rem p d in
            if Poly.is_zero q then None
            else begin
              let dv = divisor_name s i d in
              Some (Expr.add [ Expr.mul [ Expr.var dv; deeper q ]; deeper r ])
            end
          end
        in
        (* in divisor order: each candidate's recursion may register blocks *)
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
            [ Expr.add
                (List.map
                   (fun (g, b) -> Expr.mul [ Expr.const g; deeper b ])
                   groups
                @ [ deeper r.Cce.residual ]) ]
        in
        let kernel_candidate =
          let ks =
            Kernel.kernels p
            |> List.filter (fun (ck, _) -> not (Monomial.is_one ck))
            |> List.stable_sort (fun (ck1, k1) (ck2, k2) ->
                   let score (ck, k) = Poly.num_terms k * Monomial.degree ck in
                   Stdlib.compare (score (ck2, k2)) (score (ck1, k1)))
          in
          match ks with
          | [] -> []
          | (ck, k) :: _ ->
            let rest = Poly.sub p (Poly.mul_term Z.one ck k) in
            [ Expr.add
                [ Expr.mul (Expr.of_poly (Poly.monomial ck) :: [ deeper k ]);
                  deeper rest ] ]
        in
        division_candidates @ cce_candidate @ kernel_candidate
      end
    in
    cheapest
      ((direct :: content_candidate) @ power_candidate @ structural_candidates)
  end
