(* The greedy loop of [run] is indexed: each round indexes its work once
   and each trial touches only the bodies its candidate can rewrite.

   - Cube candidates and cube estimates read one table of the distinct
     monomials of all bodies, each with the terms holding it: the gcds of
     distinct pairs, plus a monomial paired with itself when it occurs
     twice, are exactly the gcds of all pairs of term positions, and a
     cube's uses are the summed multiplicities of the monomials it
     divides.
   - Block estimates read an index from monomial to the kernel instances
     holding it: an instance containing +-d contains d's leading monomial,
     so the instances without it cannot count.
   - A rewrite needs a term divisible by the cube, or by d's leading
     monomial with d's leading coefficient in absolute value: every
     kernel of a body is made of its terms divided by the co-kernel,
     coefficients unchanged, so a body with no such term has no kernel
     holding +-d.  A trial reads the bodies with such a term off the
     monomial table and leaves every other body as it is, physically,
     without kernelling it; a block rewrite repeats the test on the body
     it has just rewritten before kernelling that again.
   - A trial's cost is the current cost plus the block body's count plus
     the change in count of the bodies it rewrote, the same integer sum
     the full re-count gave.
   - Kernel intersections are computed only for the pairs of distinct
     kernels sharing two monomials (counted through a monomial index),
     since a shorter overlap cannot give a two-term candidate.  Term
     containment and intersections are one merge of two term lists sorted
     by decreasing monomial, what [Poly.coeff] looked up term by term.

   Each of these computes exactly what the plain scans computed, in the
   same candidate order, so the chosen moves and the output are
   unchanged; test/data/integrated_dump.md5 pins them. *)

module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Shape = Polysynth_expr.Shape
module Prog = Polysynth_expr.Prog

type mode = Coeff_literals | Vars_only

type strategy = Greedy | Kcm_rectangles

type result = {
  prog : Prog.t;
  blocks : (string * Poly.t) list;
  output_bodies : (string * Poly.t) list;
}

let block_prefix = "cse_t"

(* ---- coefficient-literal encoding ---------------------------------------- *)

let literal_prefix = '~'

let encode_coeff_literals p =
  Poly.of_terms
    (List.map
       (fun (c, m) ->
         let a = Z.abs c in
         if Z.is_one a then (c, m)
         else
           let sign = if Z.is_negative c then Z.minus_one else Z.one in
           ( sign,
             Monomial.mul m
               (Monomial.var (Printf.sprintf "%c%s" literal_prefix (Z.to_string a)))
           ))
       (Poly.terms p))

let is_literal_var v = String.length v > 0 && v.[0] = literal_prefix

let decode_poly p =
  List.fold_left
    (fun p v ->
      if is_literal_var v then
        Poly.subst v
          (Poly.const (Z.of_string (String.sub v 1 (String.length v - 1))))
          p
      else p)
    p (Poly.vars p)

let decode_expr e =
  Expr.subst
    (fun v ->
      if is_literal_var v then
        Some (Expr.const (Z.of_string (String.sub v 1 (String.length v - 1))))
      else None)
    e

(* ---- work items ------------------------------------------------------------ *)

type item = { name : string; body : Poly.t }

(* Operator count of one body as a flat sum of products.  A trial is
   costed from the bodies it changes (their old and new counts) and the
   same bodies recur across trials and rounds, so the per-body count is
   memoized, keyed by the polynomial's (monomial-hash based) hash.  The
   table is domain-local: the engine fans the integrated variants out
   across domains and each keeps its own lock-free table. *)
module Ptbl = Hashtbl.Make (struct
  type t = Poly.t

  let equal = Poly.equal
  let hash = Poly.hash
end)

(* Lifecycle: a domain-local table cannot be cleared from another domain,
   so [clear_cost_memo] bumps a global epoch and every domain's slot
   self-resets on its next access.  The hit/miss counters are global
   atomics rather than per-domain: worker domains are transient (they die
   when a [parallel_map] returns), so domain-local counts would vanish
   with them. *)
let cost_memo_epoch = Atomic.make 0
let cost_memo_hits = Atomic.make 0
let cost_memo_misses = Atomic.make 0
let cost_memo_on = Atomic.make true

let cost_memo_enabled () = Atomic.get cost_memo_on
let set_cost_memo_enabled b = Atomic.set cost_memo_on b

let body_ops_key : (int * int Ptbl.t) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (Atomic.get cost_memo_epoch, Ptbl.create 1024))

let body_ops body =
  if not (Atomic.get cost_memo_on) then
    Shape.cost (Shape.direct body)
  else
  let slot = Domain.DLS.get body_ops_key in
  let epoch = Atomic.get cost_memo_epoch in
  let tbl =
    let e, tbl = !slot in
    if e = epoch then tbl
    else begin
      let fresh = Ptbl.create 1024 in
      slot := (epoch, fresh);
      fresh
    end
  in
  match Ptbl.find_opt tbl body with
  | Some n ->
    Atomic.incr cost_memo_hits;
    n
  | None ->
    Atomic.incr cost_memo_misses;
    let n = Shape.cost (Shape.direct body) in
    if Ptbl.length tbl > 65536 then Ptbl.reset tbl;
    Ptbl.add tbl body n;
    n

let clear_cost_memo () =
  Atomic.incr cost_memo_epoch;
  Atomic.set cost_memo_hits 0;
  Atomic.set cost_memo_misses 0

let cost_memo_stats () =
  (Atomic.get cost_memo_hits, Atomic.get cost_memo_misses)

(* ---- extraction counters ----------------------------------------------------- *)

type stats = {
  rounds : int;
  candidates : int;
  trials : int;
  skipped : int;
  rewritten : int;
}

let no_stats =
  { rounds = 0; candidates = 0; trials = 0; skipped = 0; rewritten = 0 }

(* Global for the same reason as the cost memo's counters; a run counts
   locally and adds its totals once, when it returns. *)
let totals = Atomic.make no_stats

let stats () = Atomic.get totals
let clear_stats () = Atomic.set totals no_stats

let rec publish s =
  let t = Atomic.get totals in
  let sum =
    {
      rounds = t.rounds + s.rounds;
      candidates = t.candidates + s.candidates;
      trials = t.trials + s.trials;
      skipped = t.skipped + s.skipped;
      rewritten = t.rewritten + s.rewritten;
    }
  in
  if not (Atomic.compare_and_set totals t sum) then publish s

(* ---- candidate moves --------------------------------------------------------- *)

(* A candidate is a multi-term body to become a new block (kernels,
   kernel intersections) or a single cube to share. *)
type candidate = Block of Poly.t | Cube of Monomial.t

module MonoSet = Set.Make (Monomial)

module Mtbl = Hashtbl.Make (struct
  type t = Monomial.t

  let equal = Monomial.equal
  let hash = Monomial.hash
end)

(* every term of [small], negated when [negate], appears in [big] with the
   same coefficient; both lists are sorted by decreasing monomial *)
let rec subset_terms ~negate small big =
  match small, big with
  | [], _ -> true
  | _ :: _, [] -> false
  | (c, m) :: rs, (c', m') :: rb ->
    let cmp = Monomial.compare m m' in
    if cmp = 0 then
      Z.equal (if negate then Z.neg c else c) c' && subset_terms ~negate rs rb
    else cmp < 0 && subset_terms ~negate small rb

(* sign-aware containment: [Some 1] when d appears verbatim, [Some (-1)]
   when its negation does (systems with mirror symmetry share
   sub-expressions up to sign, e.g. P1 = S + A, P3 = S - A).  Matching up
   to sign is part of the enhanced flow, not of the [13] baseline, so it
   is switchable. *)
let subset_terms_signed ~signs d big =
  let d = Poly.terms d and big = Poly.terms big in
  if subset_terms ~negate:false d big then Some 1
  else if signs && subset_terms ~negate:true d big then Some (-1)
  else None

(* the terms of [k] that [k'] (negated when [negate]) holds with the same
   coefficient, in [k]'s order *)
let rec common_terms ~negate k k' =
  match k, k' with
  | [], _ | _, [] -> []
  | ((c, m) as t) :: rk, (c', m') :: rk' ->
    let cmp = Monomial.compare m m' in
    if cmp = 0 then
      let rest = common_terms ~negate rk rk' in
      if Z.equal c (if negate then Z.neg c' else c') then t :: rest else rest
    else if cmp > 0 then common_terms ~negate rk k'
    else common_terms ~negate k rk'

(* canonical sign for a candidate: positive leading coefficient *)
let normalize_sign p =
  if Poly.is_zero p then p
  else if Z.is_negative (fst (Poly.leading p)) then Poly.neg p
  else p

(* monomial -> indices of the polynomials holding it, in decreasing order *)
let monomial_index polys =
  let tbl = Mtbl.create 256 in
  Array.iteri
    (fun i p ->
      List.iter
        (fun (_, m) ->
          Mtbl.replace tbl m
            (i :: Option.value ~default:[] (Mtbl.find_opt tbl m)))
        (Poly.terms p))
    polys;
  tbl

let candidate_blocks ~signs kernels =
  let norm k = if signs then normalize_sign k else k in
  let kernels =
    Array.of_list (List.sort_uniq Poly.compare (List.map norm kernels))
  in
  (* pairwise term intersections of distinct kernels (up to sign) expose
     shared sub-expressions that are not whole kernels; an intersection
     is a proper part of both exactly when it is shorter than both *)
  let intersect ~negate k k' acc =
    let common = common_terms ~negate (Poly.terms k) (Poly.terms k') in
    let n = List.length common in
    if n >= 2 && n < Poly.num_terms k && n < Poly.num_terms k' then
      norm (Poly.of_sorted_terms common) :: acc
    else acc
  in
  (* only the pairs sharing at least two monomials can intersect in two
     terms: count them through the monomial index *)
  let holders = monomial_index kernels in
  let shared = Array.make (Array.length kernels) 0 in
  let inters = ref [] in
  Array.iteri
    (fun a k ->
      let later m f =
        let rec go = function
          | b :: rest when b > a ->
            f b;
            go rest
          | _ -> ()
        in
        go (Mtbl.find holders m)
      in
      let partners = ref [] in
      List.iter
        (fun (_, m) ->
          later m (fun b ->
              shared.(b) <- shared.(b) + 1;
              if shared.(b) = 2 then partners := b :: !partners))
        (Poly.terms k);
      List.iter
        (fun (_, m) -> later m (fun b -> shared.(b) <- 0))
        (Poly.terms k);
      List.iter
        (fun b ->
          inters := intersect ~negate:false k kernels.(b) !inters;
          if signs then inters := intersect ~negate:true k kernels.(b) !inters)
        !partners)
    kernels;
  List.map (fun k -> Block k) (Array.to_list kernels)
  @ List.map (fun k -> Block k) (List.sort_uniq Poly.compare !inters)

(* the distinct monomials of all bodies, each with the (item index,
   coefficient) of every term holding it *)
type occurrences = {
  mono : Monomial.t;
  count : int;
  terms : (int * Z.t) list;
}

let monomial_occurrences items =
  let tbl = Mtbl.create 64 in
  let distinct = ref [] in
  Array.iteri
    (fun i it ->
      List.iter
        (fun (c, m) ->
          match Mtbl.find_opt tbl m with
          | Some occ -> occ := (i, c) :: !occ
          | None ->
            let occ = ref [ (i, c) ] in
            Mtbl.add tbl m occ;
            distinct := (m, occ) :: !distinct)
        (Poly.terms it.body))
    items;
  List.rev_map
    (fun (mono, occ) -> { mono; count = List.length !occ; terms = !occ })
    !distinct

let candidate_cubes monos =
  let add g acc = if Monomial.degree g >= 2 then MonoSet.add g acc else acc in
  let rec pairwise acc = function
    | [] -> acc
    | o :: rest ->
      let acc = if o.count >= 2 then add o.mono acc else acc in
      pairwise
        (List.fold_left
           (fun acc o' -> add (Monomial.gcd o.mono o'.mono) acc)
           acc rest)
        rest
  in
  List.map (fun c -> Cube c) (MonoSet.elements (pairwise MonoSet.empty monos))

(* ---- applying a move ---------------------------------------------------------- *)

(* The pre-test of the header: a term (c, m) can take part in a rewrite
   only if the pattern's monomial divides m and, for a block, |c| is the
   block's leading coefficient in absolute value. *)
let pattern = function
  | Cube c -> (c, None)
  | Block d ->
    let lc, lm = Poly.leading d in
    (lm, Some (Z.abs lc))

let coeff_matches a c =
  match a with None -> true | Some a -> Z.equal (Z.abs c) a

let may_rewrite (lm, a) body =
  List.exists
    (fun (c, m) -> Monomial.divides lm m && coeff_matches a c)
    (Poly.terms body)

(* the items holding a term that matches the pattern, read from the
   round's monomial occurrences instead of scanning every body *)
let matching_items n monos (lm, a) =
  let hit = Array.make n false in
  List.iter
    (fun o ->
      if Monomial.divides lm o.mono then
        List.iter (fun (i, c) -> if coeff_matches a c then hit.(i) <- true) o.terms)
    monos;
  hit

(* [body] holds a term matching the block's pattern *)
let rewrite_with_block ~signs block_var d body =
  (* replace every residual occurrence of +-(c*d) inside [body] by
     +-(c * block_var) *)
  let pat = pattern (Block d) in
  let rec go body =
    let usable =
      List.find_map
        (fun (ck, k) ->
          Option.map (fun sign -> (ck, sign)) (subset_terms_signed ~signs d k))
        (Kernel.kernels body)
    in
    match usable with
    | None -> body
    | Some (ck, sign) ->
      let s = if sign >= 0 then Z.one else Z.minus_one in
      let removed = Poly.sub body (Poly.mul_term s ck d) in
      let replaced =
        Poly.add removed
          (Poly.term s (Monomial.mul ck (Monomial.var block_var)))
      in
      if may_rewrite pat replaced then go replaced else replaced
  in
  go body

let rewrite_with_cube block_var c body =
  Poly.of_terms
    (List.map
       (fun (k, m) ->
         match Monomial.div m c with
         | Some rest -> (k, Monomial.mul rest (Monomial.var block_var))
         | None -> (k, m))
       (Poly.terms body))

(* indices of the items the candidate body depends on, transitively;
   rewriting those would create a reference cycle between block
   definitions *)
let dependency_closure items index body =
  let frozen = Array.make (Array.length items) false in
  let rec visit v =
    match Hashtbl.find_opt index v with
    | Some i when not frozen.(i) ->
      frozen.(i) <- true;
      List.iter visit (Poly.vars items.(i).body)
    | Some _ | None -> ()
  in
  List.iter visit (Poly.vars body);
  frozen

(* ---- main loop -------------------------------------------------------------------- *)

let run ?(mode = Coeff_literals) ?(strategy = Greedy) ?(signs = true)
    ?(max_iters = 100) polys =
  let encoded =
    match mode with
    | Coeff_literals -> List.map encode_coeff_literals polys
    | Vars_only -> polys
  in
  let outputs =
    List.mapi
      (fun i p -> { name = Printf.sprintf "P%d" (i + 1); body = p })
      encoded
  in
  let counts = ref no_stats in
  (* cheap ranking before the exact trial application keeps the loop
     polynomial even on 25-polynomial systems *)
  let estimate kernels by_mono monos cand =
    match cand with
    | Block d ->
      let ops_d = body_ops d in
      let occ =
        match Mtbl.find_opt by_mono (snd (Poly.leading d)) with
        | None -> 0
        | Some instances ->
          List.fold_left
            (fun n i ->
              if subset_terms_signed ~signs d kernels.(i) <> None then n + 1
              else n)
            0 instances
      in
      occ * ops_d
    | Cube c ->
      let uses =
        List.fold_left
          (fun acc o ->
            if Monomial.divides c o.mono then acc + o.count else acc)
          0 monos
      in
      (uses - 1) * (Monomial.degree c - 1)
  in
  let trials_per_round = 40 in
  (* the trial of one candidate: the block body, the rewritten bodies as
     (item index, new body), the cost of the items with them applied, and
     how many bodies the pre-test skipped; [ops] holds the round's
     per-item counts *)
  let trial items ops index monos current_cost name cand =
    let block_body =
      match cand with
      | Block d -> d
      | Cube c -> Poly.monomial c
    in
    let frozen = dependency_closure items index block_body in
    let matching =
      matching_items (Array.length items) monos (pattern cand)
    in
    let changed = ref [] in
    let skipped = ref 0 in
    let cost = ref (current_cost + body_ops block_body) in
    for i = Array.length items - 1 downto 0 do
      if frozen.(i) then ()
      else if not matching.(i) then
        (* the pre-test fails: the body stays as it is *)
        incr skipped
      else begin
        let body = items.(i).body in
        let body' =
          match cand with
          | Block d -> rewrite_with_block ~signs name d body
          | Cube c -> rewrite_with_cube name c body
        in
        if body' != body then begin
          cost := !cost + body_ops body' - ops.(i);
          changed := (i, body') :: !changed
        end
      end
    done;
    (block_body, !changed, !cost, !skipped)
  in
  let rec loop iters items current_cost block_order =
    if iters >= max_iters then (items, block_order)
    else begin
      let instances =
        Array.of_list
          (List.concat_map
             (fun it -> Kernel.kernels it.body)
             (Array.to_list items))
      in
      let kernels = Array.map snd instances in
      let by_mono = monomial_index kernels in
      let monos = monomial_occurrences items in
      let block_candidates =
        match strategy with
        | Greedy -> candidate_blocks ~signs (Array.to_list kernels)
        | Kcm_rectangles ->
          List.map
            (fun body -> Block body)
            (Kcm.bodies (Kcm.of_kernels (Array.to_list instances)))
      in
      let candidates = block_candidates @ candidate_cubes monos in
      counts :=
        {
          !counts with
          rounds = !counts.rounds + 1;
          candidates = !counts.candidates + List.length candidates;
        };
      let ranked =
        List.map
          (fun cand -> (estimate kernels by_mono monos cand, cand))
          candidates
        |> List.filter (fun (est, _) -> est > 0)
        |> List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a)
      in
      let shortlisted =
        List.filteri (fun i _ -> i < trials_per_round) ranked
      in
      let name =
        Printf.sprintf "%s%d" block_prefix (List.length block_order + 1)
      in
      let ops = Array.map (fun it -> body_ops it.body) items in
      let index = Hashtbl.create (Array.length items) in
      Array.iteri (fun i it -> Hashtbl.replace index it.name i) items;
      let best =
        List.fold_left
          (fun best (_, cand) ->
            let ((_, changed, cost, skipped) as t) =
              trial items ops index monos current_cost name cand
            in
            let rewritten =
              List.length
                (List.filter
                   (fun (i, body') -> not (Poly.equal items.(i).body body'))
                   changed)
            in
            counts :=
              {
                !counts with
                trials = !counts.trials + 1;
                skipped = !counts.skipped + skipped;
                rewritten = !counts.rewritten + rewritten;
              };
            if cost < current_cost && rewritten >= 1 then
              match best with
              | Some (best_cost, _) when best_cost <= cost -> best
              | Some _ | None -> Some (cost, t)
            else best)
          None shortlisted
      in
      match best with
      | None -> (items, block_order)
      | Some (cost, (block_body, changed, _, _)) ->
        let items = Array.copy items in
        List.iter
          (fun (i, body) -> items.(i) <- { (items.(i)) with body })
          changed;
        let items = Array.append items [| { name; body = block_body } |] in
        loop (iters + 1) items cost (block_order @ [ name ])
    end
  in
  let outputs = Array.of_list outputs in
  let items, block_names =
    loop 0 outputs
      (Array.fold_left (fun acc it -> acc + body_ops it.body) 0 outputs)
      []
  in
  publish !counts;
  let items = Array.to_list items in
  let find_item n = List.find (fun it -> it.name = n) items in
  (* bindings must come out in dependency order: a block created early may
     have been rewritten to use a block created later *)
  let block_names =
    let visited = ref [] in
    let rec visit n =
      if not (List.mem n !visited) && List.mem n block_names then begin
        List.iter visit (Poly.vars (find_item n).body);
        visited := !visited @ [ n ]
      end
    in
    List.iter visit block_names;
    !visited
  in
  let blocks =
    List.map (fun n -> (n, decode_poly (find_item n).body)) block_names
  in
  let bindings =
    List.map
      (fun n -> (n, decode_expr (Expr.of_poly (find_item n).body)))
      block_names
  in
  let out_items =
    List.filter
      (fun it -> String.length it.name > 0 && it.name.[0] = 'P')
      items
  in
  let out_exprs =
    List.map (fun it -> (it.name, decode_expr (Expr.of_poly it.body))) out_items
  in
  let output_bodies =
    List.map (fun it -> (it.name, decode_poly it.body)) out_items
  in
  ({ prog = { Prog.bindings; outputs = out_exprs }; blocks; output_bodies }
    : result)
