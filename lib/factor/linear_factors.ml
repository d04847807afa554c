module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly

(* Positive divisors of |z| by trial division up to sqrt |z|, each hit [i]
   contributing [i] and [|z| / i].  Below 2^62 the loop runs on native
   ints ([n / i >= i] is [i * i <= n] without overflow); a prime near
   2^62 still costs about 2^31 divisions. *)
let divisors z =
  let n = Z.abs z in
  if Z.is_zero n then [ Z.one ]
  else
    match Z.to_int_opt n with
    | Some n ->
      let rec go i acc =
        let q = n / i in
        if q < i then acc
        else if q * i <> n then go (i + 1) acc
        else
          let acc = Z.of_int i :: acc in
          go (i + 1) (if q <> i then Z.of_int q :: acc else acc)
      in
      go 1 []
    | None ->
      let out = ref [] in
      let i = ref Z.one in
      while Z.compare (Z.mul !i !i) n <= 0 do
        if Z.divides !i n then begin
          out := !i :: !out;
          let q = Z.divexact n !i in
          if not (Z.equal q !i) then out := q :: !out
        end;
        i := Z.add !i Z.one
      done;
      !out

let check_univariate v u =
  if Poly.is_zero u then invalid_arg "Linear_factors: zero polynomial";
  match List.filter (fun v' -> v' <> v) (Poly.vars u) with
  | [] -> ()
  | _ :: _ -> invalid_arg "Linear_factors: polynomial is not univariate"

(* [check_univariate] guarantees every v-coefficient is a constant; a
   non-constant here means [Poly.coeffs_in] broke that contract *)
let const_coeff c =
  match Poly.to_const_opt c with
  | Some c -> c
  | None ->
    failwith
      "Linear_factors: internal error: non-constant coefficient in a \
       univariate polynomial"

let eval_at v num den u =
  (* u(num/den) * den^deg: integer by clearing denominators *)
  let deg = Poly.degree_in v u in
  List.fold_left
    (fun acc (k, c) ->
      let c = const_coeff c in
      Z.add acc (Z.mul c (Z.mul (Z.pow num k) (Z.pow den (deg - k)))))
    Z.zero (Poly.coeffs_in v u)

let roots v u =
  check_univariate v u;
  let coeffs = Poly.coeffs_in v u in
  (* strip the root at zero first: trailing coefficient of the v-free part *)
  let min_deg = List.fold_left (fun acc (k, _) -> Stdlib.min acc k) max_int
      (List.map (fun (k, c) -> (k, c)) coeffs) in
  let zero_root = min_deg > 0 in
  let shifted =
    List.filter_map
      (fun (k, c) -> if k >= min_deg then Some (k - min_deg, c) else None)
      coeffs
  in
  let trailing =
    match List.assoc_opt 0 shifted with
    | Some c -> const_coeff c
    | None -> Z.one
  in
  let leading =
    let dmax = List.fold_left (fun acc (k, _) -> Stdlib.max acc k) 0 shifted in
    match List.assoc_opt dmax shifted with
    | Some c -> const_coeff c
    | None -> Z.one
  in
  let leading_divisors = divisors leading in
  let candidates =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun a ->
            if Z.is_one (Z.gcd a b) then [ (b, a); (Z.neg b, a) ] else [])
          leading_divisors)
      (divisors trailing)
  in
  let found =
    List.filter (fun (b, a) -> Z.is_zero (eval_at v b a u)) candidates
  in
  let dedup =
    List.sort_uniq
      (fun (b1, a1) (b2, a2) ->
        let c = Z.compare a1 a2 in
        if c <> 0 then c else Z.compare b1 b2)
      found
  in
  if zero_root then (Z.zero, Z.one) :: dedup else dedup

let linear_factors v u =
  check_univariate v u;
  let factor_of (b, a) =
    (* a*v - b, primitive with positive leading coefficient *)
    Poly.sub (Poly.mul_scalar a (Poly.var v)) (Poly.const b)
  in
  let rec strip u (b, a) count =
    match Poly.div_exact u (factor_of (b, a)) with
    | Some q -> strip q (b, a) (count + 1)
    | None -> (u, count)
  in
  let rs = roots v u in
  let rest, factors =
    List.fold_left
      (fun (u, acc) root ->
        let u', k = strip u root 0 in
        if k > 0 then (u', (factor_of root, k) :: acc) else (u, acc))
      (u, []) rs
  in
  (List.rev factors, rest)
