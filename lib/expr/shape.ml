module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type t = {
  cost : int;
  (* sum view *)
  parts : int;  (** non-constant addends *)
  negs : int;  (** of which [Neg] *)
  parts_cost : int;  (** their total cost *)
  addend : Z.t;  (** folded constant addend *)
  (* product view *)
  weight : int;  (** non-constant factors plus their total cost *)
  factor : Z.t;  (** signed constant factor *)
  one_sum : bool;  (** the non-constant factors are exactly one sum *)
  costly : int;  (** factors whose base is not a variable *)
}

let cost t = t.cost
let is_unit c = Z.is_one c || Z.equal c Z.minus_one

let const c =
  {
    cost = 0;
    parts = 0;
    negs = 0;
    parts_cost = 0;
    addend = c;
    weight = 0;
    factor = c;
    one_sum = false;
    costly = 0;
  }

(* a product or single factor: its own single addend *)
let product ~weight ~factor ~one_sum ~costly =
  let cost = if is_unit factor then weight - 1 else weight in
  {
    cost;
    parts = 1;
    negs = (if Z.is_negative factor then 1 else 0);
    parts_cost = cost;
    addend = Z.zero;
    weight;
    factor;
    one_sum;
    costly;
  }

(* a normalized sum of at least two operands; [Expr.add] wraps it in [Neg]
   when every operand, the constant included, is negative *)
let sum ~parts ~negs ~parts_cost ~addend =
  let n = if Z.is_zero addend then parts else parts + 1 in
  let cost = parts_cost + n - 1 in
  let all_neg = negs = parts && Z.sign addend <= 0 in
  {
    cost;
    parts;
    negs;
    parts_cost;
    addend;
    weight = cost + 1;
    factor = (if all_neg then Z.minus_one else Z.one);
    one_sum = true;
    costly = 1;
  }

let neg t =
  {
    t with
    negs = t.parts - t.negs;
    addend = Z.neg t.addend;
    factor = Z.neg t.factor;
  }

let var = product ~weight:1 ~factor:Z.one ~one_sum:false ~costly:0
let tree_cost e = Dag.total_ops (Dag.tree_counts e)

let costly_base (e : Expr.t) =
  match e with
  | Var _ | Pow (Var _, _) -> 0
  | Const _ | Neg _ | Add _ | Mul _ | Pow _ -> 1

let rec of_expr (e : Expr.t) =
  match e with
  | Const c -> const c
  | Neg e -> neg (of_expr e)
  | Var _ -> var
  | Pow _ ->
    product ~weight:(1 + tree_cost e) ~factor:Z.one ~one_sum:false
      ~costly:(costly_base e)
  | Add es ->
    let parts, negs, parts_cost, addend =
      List.fold_left
        (fun (parts, negs, pc, addend) (e : Expr.t) ->
          match e with
          | Const k -> (parts, negs, pc, Z.add addend k)
          | Neg (Const k) -> (parts, negs, pc, Z.sub addend k)
          | Neg _ -> (parts + 1, negs + 1, pc + tree_cost e, addend)
          | Var _ | Add _ | Mul _ | Pow _ ->
            (parts + 1, negs, pc + tree_cost e, addend))
        (0, 0, 0, Z.zero) es
    in
    sum ~parts ~negs ~parts_cost ~addend
  | Mul fs ->
    let factors = List.filter (function Expr.Const _ -> false | _ -> true) fs in
    let factor =
      List.fold_left
        (fun c (f : Expr.t) -> match f with Const k -> Z.mul c k | _ -> c)
        Z.one fs
    in
    product
      ~weight:(List.fold_left (fun w f -> w + 1 + tree_cost f) 0 factors)
      ~factor
      ~one_sum:(match factors with [ Add _ ] -> true | _ -> false)
      ~costly:(List.fold_left (fun n f -> n + costly_base f) 0 factors)

(* Expr.of_poly: each non-constant term is a product of weight [deg m]
   (variables and variable powers) and constant [c]; the constant term,
   if any, comes last in the graded-lex order *)
let direct p =
  let rec terms parts negs parts_cost = function
    | [] -> finish parts negs parts_cost Z.zero
    | [ (c, m) ] when Monomial.is_one m -> finish parts negs parts_cost c
    | (c, m) :: rest ->
      terms (parts + 1)
        (if Z.is_negative c then negs + 1 else negs)
        (parts_cost + Monomial.degree m - if is_unit c then 1 else 0)
        rest
  and finish parts negs parts_cost addend =
    if parts = 0 then const addend else sum ~parts ~negs ~parts_cost ~addend
  in
  match Poly.terms p with
  | [ (c, m) ] when not (Monomial.is_one m) ->
    product ~weight:(Monomial.degree m) ~factor:c ~one_sum:false ~costly:0
  | ts -> terms 0 0 0 ts

let add ts =
  let parts, negs, parts_cost, addend =
    List.fold_left
      (fun (parts, negs, pc, addend) t ->
        ( parts + t.parts,
          negs + t.negs,
          pc + t.parts_cost,
          Z.add addend t.addend ))
      (0, 0, 0, Z.zero) ts
  in
  if parts = 0 then Some (const addend)
  else if parts = 1 && Z.is_zero addend then
    (* the result is the one surviving addend: known only when its operand
       was that addend itself *)
    match List.find (fun t -> t.parts = 1) ts with
    | t when Z.is_zero t.addend -> Some t
    | _ -> None
  else Some (sum ~parts ~negs ~parts_cost ~addend)

let mul ts =
  let factor = List.fold_left (fun c t -> Z.mul c t.factor) Z.one ts in
  if Z.is_zero factor then Some (const Z.zero)
  else if List.length (List.filter (fun t -> t.costly > 0) ts) >= 2 then None
  else
    match List.filter (fun t -> t.weight > 0) ts with
    | [] -> Some (const factor)
    | [ t ] when t.one_sum && is_unit factor ->
      (* a lone sum times a unit: the sum itself, or its negation *)
      Some (if Z.equal factor t.factor then t else neg t)
    | nonconst ->
      Some
        (product
           ~weight:(List.fold_left (fun w t -> w + t.weight) 0 nonconst)
           ~factor
           ~one_sum:(match nonconst with [ t ] -> t.one_sum | _ -> false)
           ~costly:(List.fold_left (fun n t -> n + t.costly) 0 nonconst))

let equal a b =
  a.cost = b.cost && a.parts = b.parts && a.negs = b.negs
  && a.parts_cost = b.parts_cost && Z.equal a.addend b.addend
  && a.weight = b.weight && Z.equal a.factor b.factor
  && a.one_sum = b.one_sum && a.costly = b.costly
