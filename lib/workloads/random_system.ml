module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type config = {
  num_polys : int;
  num_vars : int;
  max_terms : int;
  max_degree : int;
  max_coeff : int;
  sharing : bool;
}

let default_config =
  {
    num_polys = 3;
    num_vars = 3;
    max_terms = 6;
    max_degree = 3;
    max_coeff = 16;
    sharing = true;
  }

(* small deterministic PRNG (xorshift-style) so runs are reproducible *)
type rng = { mutable state : int }

let make_rng seed = { state = (seed * 2654435761) lor 1 }

let next rng bound =
  let s = rng.state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  rng.state <- s land max_int;
  if bound <= 0 then 0 else rng.state mod bound

let var_name i = Printf.sprintf "x%d" i

let random_monomial rng cfg =
  let degree = next rng (cfg.max_degree + 1) in
  let rec build acc left =
    if left = 0 then acc
    else
      let v = var_name (next rng cfg.num_vars) in
      build ((v, 1) :: acc) (left - 1)
  in
  Monomial.of_list (build [] degree)

let random_coeff rng cfg =
  let c = 1 + next rng cfg.max_coeff in
  if next rng 2 = 0 then Z.of_int c else Z.of_int (-c)

let random_linear rng cfg =
  let a = random_coeff rng cfg and b = random_coeff rng cfg in
  let v1 = var_name (next rng cfg.num_vars) in
  let v2 = var_name (next rng cfg.num_vars) in
  Poly.add
    (Poly.mul_scalar a (Poly.var v1))
    (Poly.mul_scalar b (Poly.var v2))

let random_poly rng cfg pool =
  let num_terms = 1 + next rng cfg.max_terms in
  let base =
    Poly.add_list
      (List.init num_terms (fun _ ->
           Poly.term (random_coeff rng cfg) (random_monomial rng cfg)))
  in
  if cfg.sharing && pool <> [] && next rng 2 = 0 then begin
    (* multiply a shared linear block in, or add its square *)
    let block = List.nth pool (next rng (List.length pool)) in
    if next rng 2 = 0 then Poly.mul base block
    else Poly.add base (Poly.mul block block)
  end
  else base

let generate ~seed cfg =
  let rng = make_rng seed in
  let pool =
    if cfg.sharing then List.init 2 (fun _ -> random_linear rng cfg) else []
  in
  List.init cfg.num_polys (fun _ -> random_poly rng cfg pool)

let grid ~seed =
  List.concat_map
    (fun num_vars ->
      List.concat_map
        (fun max_degree ->
          List.map
            (fun num_polys ->
              let cfg =
                {
                  default_config with
                  num_polys;
                  num_vars;
                  max_degree;
                  sharing = true;
                }
              in
              let cell_seed =
                (seed * 1000) + (100 * num_vars) + (10 * max_degree) + num_polys
              in
              ( Printf.sprintf "rand v%d d%d p%d" num_vars max_degree num_polys,
                generate ~seed:cell_seed cfg ))
            [ 3; 4; 5; 6; 7; 8 ])
        [ 2; 3 ])
    [ 2; 3 ]
