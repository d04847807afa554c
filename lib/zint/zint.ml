(* Two representations behind one abstract type.  A value v with
   |v| < 2^60 is the immediate native int v itself; any other value is a
   pointer to an immutable [big] record: sign-magnitude, [mag]
   little-endian in base 2^30 with no high-order zero limb, hence at least
   three limbs.  Which form a value takes depends on the value alone, so
   the representation is canonical: structural equality is value
   equality.  Both forms are valid OCaml values (a tagged int or a
   pointer to an ordinary block), so the collector never sees anything
   unusual.

   The bound 2^60 keeps the native fast paths overflow-free: a sum or
   difference of two immediates is below 2^61, and a product of two
   values below 2^31 is below 2^62.  Everything else widens both operands
   to [big] and runs the limb code, whose results [normalize] turns back
   into the canonical form. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1
let small_limit = 1 lsl (2 * base_bits)

type big = { sign : int; mag : int array }

type t = Obj.t

let is_imm : t -> bool = Obj.is_int
let imm (z : t) : int = Obj.obj z
let of_imm (n : int) : t = Obj.repr n
let big (z : t) : big = Obj.obj z
let of_big (b : big) : t = Obj.repr b

let fits n = n > -small_limit && n < small_limit

let zero = of_imm 0
let one = of_imm 1
let two = of_imm 2
let minus_one = of_imm (-1)

(* the limb form of an immediate: at most two limbs *)
let big_of_imm n =
  if n = 0 then { sign = 0; mag = [||] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    let m = Stdlib.abs n in
    let mag =
      if m < base then [| m |] else [| m land base_mask; m lsr base_bits |]
    in
    { sign; mag }
  end

let to_big z = if is_imm z then big_of_imm (imm z) else big z

(* the canonical value of [sign] times [mag], which may carry high-order
   zero limbs *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi = 0 then of_imm (sign * mag.(0))
  else if hi = 1 then of_imm (sign * (mag.(0) lor (mag.(1) lsl base_bits)))
  else if hi = n - 1 then of_big { sign; mag }
  else of_big { sign; mag = Array.sub mag 0 (hi + 1) }

let of_int n =
  if fits n then of_imm n
  else if n = Stdlib.min_int then
    of_big
      { sign = -1; mag = [| 0; 0; 1 lsl (Sys.int_size - 1 - (2 * base_bits)) |] }
  else begin
    (* 2^60 <= |n| < 2^62: exactly three limbs *)
    let m = Stdlib.abs n in
    of_big
      {
        sign = (if n < 0 then -1 else 1);
        mag =
          [| m land base_mask; (m lsr base_bits) land base_mask;
             m lsr (2 * base_bits) |];
      }
  end

let sign z = if is_imm z then Int.compare (imm z) 0 else (big z).sign
let is_zero z = z == zero
let is_one z = z == one
let is_negative z = if is_imm z then imm z < 0 else (big z).sign < 0

let is_even z =
  if is_imm z then imm z land 1 = 0 else (big z).mag.(0) land 1 = 0

let neg z =
  if is_imm z then of_imm (-imm z)
  else
    let b = big z in
    of_big { b with sign = -b.sign }

let abs z =
  if is_imm z then of_imm (Stdlib.abs (imm z))
  else
    let b = big z in
    if b.sign < 0 then of_big { b with sign = 1 } else z

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare_big a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

(* an immediate lies strictly between the negative and the positive
   big values *)
let compare a b =
  if is_imm a then
    if is_imm b then Int.compare (imm a) (imm b) else -(big b).sign
  else if is_imm b then (big a).sign
  else compare_big (big a) (big b)

let equal a b =
  a == b
  || ((not (is_imm a)) && (not (is_imm b)) && compare_big (big a) (big b) = 0)

(* The base-2^30 limb fold, seeded with sign + 2.  For an immediate it is
   computed from the int's at most two limbs without building them, so
   every value hashes as it did when all values were limb records. *)
let hash_step acc d = ((acc * 65599) + d) land max_int

let hash z =
  if is_imm z then begin
    let n = imm z in
    if n = 0 then 2
    else
      let acc = if n < 0 then 1 else 3 in
      let m = Stdlib.abs n in
      if m < base then hash_step acc m
      else hash_step (hash_step acc (m land base_mask)) (m lsr base_bits)
  end
  else
    let b = big z in
    Array.fold_left hash_step (b.sign + 2) b.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* magnitude addition *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* magnitude subtraction, requires a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

(* limb addition of two non-zero values *)
let add_big a b =
  if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

let add a b =
  if is_imm a && is_imm b then of_int (imm a + imm b)
  else if is_zero a then b
  else if is_zero b then a
  else add_big (to_big a) (to_big b)

let sub a b =
  if is_imm a && is_imm b then of_int (imm a - imm b) else add a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      let p = (ai * b.(j)) + r.(i + j) + !carry in
      r.(i + j) <- p land base_mask;
      carry := p lsr base_bits
    done;
    let rec flush k c =
      if c <> 0 then begin
        let s = r.(k) + c in
        r.(k) <- s land base_mask;
        flush (k + 1) (s lsr base_bits)
      end
    in
    flush (i + lb) !carry
  done;
  r

let native_mul_bound = 1 lsl (base_bits + 1)

let mul a b =
  if is_zero a || is_zero b then zero
  else if
    is_imm a && is_imm b
    && Stdlib.abs (imm a) < native_mul_bound
    && Stdlib.abs (imm b) < native_mul_bound
  then of_int (imm a * imm b)
  else
    let a = to_big a and b = to_big b in
    normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int a n = mul a (of_int n)

let bits_of_int v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits_mag mag =
  let n = Array.length mag in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_int mag.(n - 1)

let num_bits z =
  if is_imm z then bits_of_int (Stdlib.abs (imm z)) else num_bits_mag (big z).mag

let bit_at mag i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

(* Magnitude division by binary long division: simple and adequate for the
   moderate operand sizes arising in polynomial synthesis. *)
let divmod_mag a b =
  let nb = num_bits_mag a in
  let q = Array.make (Array.length a) 0 in
  let r = ref zero in
  let bz = normalize 1 b in
  for i = nb - 1 downto 0 do
    (* r := 2r + bit i of a *)
    let doubled = add !r !r in
    let with_bit =
      if bit_at a i = 1 then add doubled one else doubled
    in
    if compare with_bit bz >= 0 then begin
      r := sub with_bit bz;
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
    else r := with_bit
  done;
  (normalize 1 q, !r)

(* division of non-zero values, at least one of them big *)
let divmod_big a b =
  let ab = to_big a and bb = to_big b in
  if compare_mag ab.mag bb.mag < 0 then (zero, a)
  else begin
    let q, r = divmod_mag ab.mag bb.mag in
    let q = if ab.sign * bb.sign < 0 then neg q else q in
    let r = if ab.sign < 0 then neg r else r in
    (q, r)
  end

(* native [/] and [mod] truncate toward zero, as specified; on immediates
   their results are immediates again *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if is_imm a && is_imm b then (of_imm (imm a / imm b), of_imm (imm a mod imm b))
  else if is_zero a then (zero, zero)
  else divmod_big a b

let div a b =
  if is_imm a && is_imm b && not (is_zero b) then of_imm (imm a / imm b)
  else fst (divmod a b)

let rem a b =
  if is_imm a && is_imm b && not (is_zero b) then of_imm (imm a mod imm b)
  else snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if sign r >= 0 then (q, r)
  else if sign b > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Zint.divexact: inexact division";
  q

let divides d a =
  if is_zero d then is_zero a else is_zero (rem a d)

let gcd a b =
  let rec native x y = if y = 0 then x else native y (x mod y) in
  let rec go a b =
    if is_zero b then a
    else if is_imm a && is_imm b then of_imm (native (imm a) (imm b))
    else go b (rem a b)
  in
  go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero else abs (mul (div a (gcd a b)) b)

let pow z e =
  if e < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc base) (mul base base) (e lsr 1)
    else go acc (mul base base) (e lsr 1)
  in
  go one z e

let pow2 m =
  if m < 0 then invalid_arg "Zint.pow2: negative exponent";
  if m < 2 * base_bits then of_imm (1 lsl m) else pow two m

let factorial n =
  if n < 0 then invalid_arg "Zint.factorial: negative input";
  let rec go acc k = if k > n then acc else go (mul_int acc k) (k + 1) in
  go one 1

let trailing_zeros v =
  let rec go v acc = if v land 1 = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let val2 z =
  if is_zero z then invalid_arg "Zint.val2: zero";
  if is_imm z then trailing_zeros (imm z)
  else begin
    let mag = (big z).mag in
    let rec limb i = if mag.(i) = 0 then limb (i + 1) else i in
    let i = limb 0 in
    (i * base_bits) + trailing_zeros mag.(i)
  end

let erem_pow2 z m = snd (ediv_rem z (pow2 m))

let to_int_opt z =
  if is_imm z then Some (imm z)
  else begin
    (* Magnitudes up to 2^62 - 1 always fit; min_int (magnitude exactly
       2^62, negative sign) is the single 63-bit value that also fits. *)
    let b = big z in
    let bits = num_bits_mag b.mag in
    let last = Array.length b.mag - 1 in
    if bits <= 62 then begin
      let v = Array.fold_right (fun d acc -> (acc lsl base_bits) lor d) b.mag 0 in
      Some (if b.sign < 0 then -v else v)
    end
    else if bits = 63 && b.sign < 0 then begin
      let is_pow2_62 =
        Array.for_all (fun d -> d = 0) (Array.sub b.mag 0 last)
        && b.mag.(last) = 1 lsl (62 - (last * base_bits))
      in
      if is_pow2_62 then Some Stdlib.min_int else None
    end
    else None
  end

let to_int_exn z =
  match to_int_opt z with
  | Some n -> n
  | None -> failwith "Zint.to_int_exn: value out of native int range"

let billion = of_int 1_000_000_000

let to_string z =
  if is_imm z then string_of_int (imm z)
  else begin
    let buf = Buffer.create 32 in
    let rec chunks acc v =
      if is_zero v then acc
      else
        let q, r = divmod v billion in
        chunks (to_int_exn r :: acc) q
    in
    match chunks [] (abs z) with
    | [] -> assert false
    | first :: rest ->
      if is_negative z then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Zint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | '0' .. '9' -> (false, 0)
    | _ -> invalid_arg "Zint.of_string: malformed literal"
  in
  if start >= len then invalid_arg "Zint.of_string: malformed literal";
  let acc = ref zero in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
    | _ -> invalid_arg "Zint.of_string: malformed literal"
  done;
  if negative then neg !acc else !acc

let pp fmt z = Format.pp_print_string fmt (to_string z)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
