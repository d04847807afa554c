module Z = Polysynth_zint.Zint

let z = Alcotest.testable Z.pp Z.equal

let check_z = Alcotest.check z

(* qcheck generators ------------------------------------------------------- *)

let small_int_gen = QCheck.Gen.int_range (-1_000_000) 1_000_000

let zint_of_parts =
  (* build a bignum from several native ints so values routinely exceed a
     single limb and the native range *)
  QCheck.Gen.map
    (fun (a, b, c) ->
      Z.add (Z.mul (Z.of_int a) (Z.mul (Z.of_int b) (Z.of_int b))) (Z.of_int c))
    QCheck.Gen.(triple small_int_gen small_int_gen small_int_gen)

let arb_small = QCheck.make small_int_gen ~print:string_of_int

let prop name ?(count = 500) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* Values straddling the word-size fast path: near +-2^30 (one/two limbs),
   +-2^60 (two/three limbs), +-2^62, max_int and min_int; and 3+-limb
   values well beyond the native range. *)
let boundary_gen =
  let open QCheck.Gen in
  let anchor =
    oneofl
      [ Z.zero; Z.pow2 30; Z.pow2 60; Z.pow2 62; Z.of_int max_int;
        Z.of_int min_int; Z.pow2 90; Z.pow2 125 ]
  in
  let near =
    map2
      (fun a (neg, off) ->
        let v = Z.add a (Z.of_int off) in
        if neg then Z.neg v else v)
      anchor
      (pair bool (int_range (-3) 3))
  in
  frequency
    [ (2, near); (2, zint_of_parts); (1, map Z.of_int small_int_gen);
      (1, map2 Z.mul zint_of_parts zint_of_parts) ]

let arb_zint = QCheck.make boundary_gen ~print:Z.to_string

(* Scaling by 2^90 pushes every non-zero operand to four or more limbs,
   so the scaled computation runs the limb code: a reference for the
   word-size fast path. *)
let big_scale = Z.pow2 90
let scaled a = Z.mul a big_scale

(* same value, same normalized limbs: equal and hash agree *)
let same a b = Z.equal a b && Z.hash a = Z.hash b

(* unit tests --------------------------------------------------------------- *)

let test_constants () =
  check_z "zero" Z.zero (Z.of_int 0);
  check_z "one" Z.one (Z.of_int 1);
  check_z "two" Z.two (Z.of_int 2);
  check_z "minus_one" Z.minus_one (Z.of_int (-1));
  Alcotest.(check bool) "is_zero" true (Z.is_zero Z.zero);
  Alcotest.(check bool) "is_one" true (Z.is_one Z.one);
  Alcotest.(check bool) "one not zero" false (Z.is_zero Z.one)

let test_of_int_extremes () =
  Alcotest.(check int) "max_int" max_int (Z.to_int_exn (Z.of_int max_int));
  Alcotest.(check int) "min_int" min_int (Z.to_int_exn (Z.of_int min_int));
  Alcotest.(check int) "-1" (-1) (Z.to_int_exn (Z.of_int (-1)))

let test_string_roundtrip () =
  let cases =
    [ "0"; "1"; "-1"; "123456789"; "-987654321";
      "123456789012345678901234567890";
      "-340282366920938463463374607431768211456" ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Z.to_string (Z.of_string s)))
    cases

let test_of_string_invalid () =
  let invalid s =
    Alcotest.check_raises s (Invalid_argument "Zint.of_string: malformed literal")
      (fun () -> ignore (Z.of_string s))
  in
  invalid "12a3";
  invalid "-";
  invalid "+"

let test_of_string_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Zint.of_string: empty string") (fun () ->
      ignore (Z.of_string ""))

let test_big_arithmetic () =
  let a = Z.of_string "123456789012345678901234567890" in
  let b = Z.of_string "98765432109876543210" in
  check_z "a+b"
    (Z.of_string "123456789111111111011111111100")
    (Z.add a b);
  check_z "a-b"
    (Z.of_string "123456788913580246791358024680")
    (Z.sub a b);
  check_z "a*b"
    (Z.of_string "12193263113702179522496570642237463801111263526900")
    (Z.mul a b)

let test_factorial () =
  check_z "0!" Z.one (Z.factorial 0);
  check_z "5!" (Z.of_int 120) (Z.factorial 5);
  check_z "20!" (Z.of_string "2432902008176640000") (Z.factorial 20);
  check_z "25!" (Z.of_string "15511210043330985984000000") (Z.factorial 25);
  Alcotest.check_raises "negative"
    (Invalid_argument "Zint.factorial: negative input") (fun () ->
      ignore (Z.factorial (-1)))

let test_pow () =
  check_z "2^0" Z.one (Z.pow Z.two 0);
  check_z "2^10" (Z.of_int 1024) (Z.pow Z.two 10);
  check_z "(-3)^3" (Z.of_int (-27)) (Z.pow (Z.of_int (-3)) 3);
  check_z "pow2 64" (Z.of_string "18446744073709551616") (Z.pow2 64);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zint.pow: negative exponent") (fun () ->
      ignore (Z.pow Z.two (-1)))

let test_val2 () =
  Alcotest.(check int) "48" 4 (Z.val2 (Z.of_int 48));
  Alcotest.(check int) "1" 0 (Z.val2 Z.one);
  Alcotest.(check int) "2^40" 40 (Z.val2 (Z.pow2 40));
  Alcotest.(check int) "v2(20!)" 18 (Z.val2 (Z.factorial 20));
  Alcotest.check_raises "zero" (Invalid_argument "Zint.val2: zero") (fun () ->
      ignore (Z.val2 Z.zero))

let test_divmod_signs () =
  (* truncated division must agree with native / and mod *)
  let pairs = [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (0, 5) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) (a / b) (Z.to_int_exn q);
      Alcotest.(check int) (Printf.sprintf "r %d/%d" a b) (a mod b) (Z.to_int_exn r))
    pairs;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_ediv_rem () =
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Z.ediv_rem (Z.of_int a) (Z.of_int b) in
      Alcotest.(check bool)
        (Printf.sprintf "0<=r<|b| for %d %d" a b)
        true
        (Z.sign r >= 0 && Z.compare r (Z.abs (Z.of_int b)) < 0);
      check_z
        (Printf.sprintf "a=qb+r for %d %d" a b)
        (Z.of_int a)
        (Z.add (Z.mul q (Z.of_int b)) r))
    cases

let test_erem_pow2 () =
  Alcotest.(check int) "17 mod 16" 1 (Z.to_int_exn (Z.erem_pow2 (Z.of_int 17) 4));
  Alcotest.(check int) "-1 mod 16" 15 (Z.to_int_exn (Z.erem_pow2 (Z.of_int (-1)) 4));
  Alcotest.(check int) "0 mod 8" 0 (Z.to_int_exn (Z.erem_pow2 Z.zero 3))

let test_gcd_lcm () =
  check_z "gcd 24 30" (Z.of_int 6) (Z.gcd (Z.of_int 24) (Z.of_int 30));
  check_z "gcd -24 30" (Z.of_int 6) (Z.gcd (Z.of_int (-24)) (Z.of_int 30));
  check_z "gcd 0 0" Z.zero (Z.gcd Z.zero Z.zero);
  check_z "gcd 0 7" (Z.of_int 7) (Z.gcd Z.zero (Z.of_int 7));
  check_z "lcm 4 6" (Z.of_int 12) (Z.lcm (Z.of_int 4) (Z.of_int 6));
  check_z "lcm 0 6" Z.zero (Z.lcm Z.zero (Z.of_int 6))

let test_divexact () =
  check_z "84/7" (Z.of_int 12) (Z.divexact (Z.of_int 84) (Z.of_int 7));
  Alcotest.check_raises "inexact"
    (Invalid_argument "Zint.divexact: inexact division") (fun () ->
      ignore (Z.divexact (Z.of_int 5) (Z.of_int 2)))

let test_divides () =
  Alcotest.(check bool) "3|12" true (Z.divides (Z.of_int 3) (Z.of_int 12));
  Alcotest.(check bool) "5|12" false (Z.divides (Z.of_int 5) (Z.of_int 12));
  Alcotest.(check bool) "0|0" true (Z.divides Z.zero Z.zero);
  Alcotest.(check bool) "0|3" false (Z.divides Z.zero (Z.of_int 3))

let test_num_bits () =
  Alcotest.(check int) "0" 0 (Z.num_bits Z.zero);
  Alcotest.(check int) "1" 1 (Z.num_bits Z.one);
  Alcotest.(check int) "255" 8 (Z.num_bits (Z.of_int 255));
  Alcotest.(check int) "256" 9 (Z.num_bits (Z.of_int 256));
  Alcotest.(check int) "2^100" 101 (Z.num_bits (Z.pow2 100))

let test_to_int_opt_bounds () =
  Alcotest.(check bool) "2^61 fits" true (Z.to_int_opt (Z.pow2 61) <> None);
  Alcotest.(check bool) "2^63 too big" true (Z.to_int_opt (Z.pow2 63) = None)

let test_limb_carry_roundtrip () =
  (* 2^60 - 1 is the largest two-limb magnitude; +-2^60 and beyond need a
     third limb, which a sum of two two-limb values can reach *)
  let two60 = 1 lsl 60 in
  List.iter
    (fun n ->
      let name = string_of_int n in
      Alcotest.(check (option int)) name (Some n) (Z.to_int_opt (Z.of_int n));
      check_z ("of_int vs limbs " ^ name) (Z.of_string name) (Z.of_int n))
    [ two60 - 1; two60; two60 + 1; -two60 + 1; -two60; -two60 - 1;
      (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30); (1 lsl 61) + 5; max_int;
      min_int; min_int + 1 ];
  let m = Z.of_int (two60 - 1) in
  check_z "2-limb sum carries" (Z.of_string "2305843009213693950") (Z.add m m);
  check_z "2-limb difference" (Z.neg (Z.of_string "2305843009213693950"))
    (Z.sub (Z.neg m) m);
  Alcotest.(check int) "3 limbs of bits" 61 (Z.num_bits (Z.add m m))

let test_integer_root_boundaries () =
  let module S = Polysynth_factor.Squarefree in
  let root name n k expect =
    Alcotest.(check (option z)) name expect (S.integer_root n k)
  in
  List.iter
    (fun (r, k) ->
      let n = Z.pow r k in
      let name = Printf.sprintf "%s^%d" (Z.to_string r) k in
      root name n k (Some r);
      root (name ^ " + 1") (Z.add n Z.one) k None;
      if Z.compare n Z.one > 0 then root (name ^ " - 1") (Z.sub n Z.one) k None;
      if k land 1 = 1 then begin
        root ("-" ^ name) (Z.neg n) k (Some (Z.neg r));
        root ("-" ^ name ^ " - 1") (Z.sub (Z.neg n) Z.one) k None
      end
      else root ("-" ^ name) (Z.neg n) k None)
    [ (Z.of_int ((1 lsl 15) - 1), 2); (Z.pow2 15, 2); (Z.of_int ((1 lsl 30) - 1), 2);
      (Z.pow2 30, 2); (Z.of_int ((1 lsl 30) + 1), 2); (Z.pow2 31, 2);
      (Z.of_int ((1 lsl 20) + 3), 3); (Z.pow2 20, 3); (Z.of_int 4093, 5);
      (Z.of_int 379, 7); (Z.of_int ((1 lsl 30) + 1), 3); (Z.of_int 3, 37) ]

(* Z.hash must not depend on the representation: these values were
   rendered when every value was a base-2^30 limb record, so hash tables
   keyed by Z.hash (through Poly.hash) bucket exactly as they did then. *)
let test_hash_pinned () =
  let p2 = Z.pow2 in
  List.iter
    (fun (name, v, h) -> Alcotest.(check int) name h (Z.hash v))
    [ ("0", Z.zero, 2);
      ("1", Z.one, 196798);
      ("-1", Z.minus_one, 65600);
      ("2^30-1", Z.sub (p2 30) Z.one, 1073938620);
      ("-(2^30-1)", Z.neg (Z.sub (p2 30) Z.one), 1073807422);
      ("2^30", p2 30, 12909686404);
      ("-2^30", Z.neg (p2 30), 4303228802);
      ("2^60-1", Z.sub (p2 60) Z.one, 70450373275203);
      ("-(2^60-1)", Z.neg (Z.sub (p2 60) Z.one), 70441766817601);
      ("2^60", p2 60, 846862518350398);
      ("-2^60", Z.neg (p2 60), 282287506116800);
      ("2^60+1", Z.add (p2 60) Z.one, 846866821579199);
      ("-(2^60+1)", Z.neg (Z.add (p2 60) Z.one), 282291809345601);
      ("max_int", Z.of_int max_int, 9788018052653696);
      ("min_int", Z.of_int min_int, 282287506116803);
      ("2^90", p2 90, 213102120139037956);
      ("-2^90", Z.neg (p2 90), 71034040046345986) ]

(* properties --------------------------------------------------------------- *)

let prop_add_commutes =
  prop "add commutes" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal (Z.add a b) (Z.add b a))

let prop_add_assoc =
  prop "add associates" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) -> Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)))

let prop_mul_commutes =
  prop "mul commutes" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal (Z.mul a b) (Z.mul b a))

let prop_mul_assoc =
  prop "mul associates" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) -> Z.equal (Z.mul (Z.mul a b) c) (Z.mul a (Z.mul b c)))

let prop_distrib =
  prop "mul distributes over add" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) ->
      Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let prop_sub_inverse =
  prop "a - b + b = a" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal a (Z.add (Z.sub a b) b))

let prop_matches_native =
  prop "agrees with native int ops" QCheck.(pair arb_small arb_small)
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      Z.to_int_exn (Z.add za zb) = a + b
      && Z.to_int_exn (Z.sub za zb) = a - b
      && Z.to_int_exn (Z.mul za zb) = a * b
      && (b = 0 || Z.to_int_exn (Z.div za zb) = a / b)
      && (b = 0 || Z.to_int_exn (Z.rem za zb) = a mod b))

let prop_divmod_invariant =
  prop "a = q*b + r with |r| < |b|" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = Z.divmod a b in
      Z.equal a (Z.add (Z.mul q b) r)
      && Z.compare (Z.abs r) (Z.abs b) < 0
      && (Z.is_zero r || Z.sign r = Z.sign a)
      && Z.equal q (Z.div a b)
      && Z.equal r (Z.rem a b)
      && Z.divides b a = Z.is_zero r)

let prop_string_roundtrip =
  prop "to_string/of_string roundtrip" arb_zint (fun a ->
      Z.equal a (Z.of_string (Z.to_string a)))

let prop_gcd_divides =
  prop "gcd divides both arguments" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      let g = Z.gcd a b in
      if Z.is_zero g then Z.is_zero a && Z.is_zero b
      else
        Z.sign g > 0 && Z.divides g a && Z.divides g b
        && Z.is_one (Z.gcd (Z.div a g) (Z.div b g)))

let prop_compare_total_order =
  prop "compare consistent with sub sign" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      let c = Z.compare a b in
      let s = Z.sign (Z.sub a b) in
      (c > 0) = (s > 0) && (c < 0) = (s < 0) && (c = 0) = (s = 0))

let prop_hash_consistent =
  prop "equal values hash equally" arb_zint (fun a ->
      Z.hash a = Z.hash (Z.sub (Z.add a Z.one) Z.one))

let prop_num_bits_bound =
  prop "2^(bits-1) <= |a| < 2^bits" arb_zint (fun a ->
      QCheck.assume (not (Z.is_zero a));
      let n = Z.num_bits a in
      Z.compare (Z.abs a) (Z.pow2 n) < 0
      && Z.compare (Z.pow2 (n - 1)) (Z.abs a) <= 0)

let prop_fast_add_matches_limbs =
  prop "boundary add/sub agree with the limb path" ~count:1000
    QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      same (scaled (Z.add a b)) (Z.add (scaled a) (scaled b))
      && same (scaled (Z.sub a b)) (Z.sub (scaled a) (scaled b)))

let prop_fast_mul_matches_limbs =
  prop "boundary mul agrees with the limb path" ~count:1000
    QCheck.(pair arb_zint arb_zint)
    (fun (a, b) -> same (scaled (Z.mul a b)) (Z.mul (scaled a) b))

let prop_fast_divmod_matches_limbs =
  prop "boundary divmod agrees with the limb path" ~count:1000
    QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = Z.divmod a b in
      let q', r' = Z.divmod (scaled a) (scaled b) in
      same q q' && same (scaled r) r')

let prop_fast_gcd_matches_limbs =
  prop "boundary gcd agrees with the limb path" ~count:1000
    QCheck.(pair arb_zint arb_zint)
    (fun (a, b) -> same (scaled (Z.gcd a b)) (Z.gcd (scaled a) (scaled b)))

let prop_native_roundtrip =
  prop "of_int/to_int_opt roundtrip" ~count:1000 arb_zint (fun a ->
      match Z.to_int_opt a with
      | Some n -> same a (Z.of_int n)
      | None -> Z.num_bits a >= 63)

(* Every value has one representation, whichever path computed it (the
   native one, the limb code, a sum crossing 2^60 and back), so
   structural equality is value equality. *)
let prop_canonical =
  prop "equal is structural equality" ~count:1000
    QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      let via_limbs = Z.div (scaled a) big_scale in
      let via_sum = Z.sub (Z.add a b) b in
      via_limbs = a && via_sum = a
      && Z.equal a b = (a = b)
      && Z.equal a via_sum = (a = via_sum))

let () =
  Alcotest.run "zint"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_int extremes" `Quick test_of_int_extremes;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "of_string empty" `Quick test_of_string_empty;
          Alcotest.test_case "big arithmetic" `Quick test_big_arithmetic;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "val2" `Quick test_val2;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "ediv_rem" `Quick test_ediv_rem;
          Alcotest.test_case "erem_pow2" `Quick test_erem_pow2;
          Alcotest.test_case "gcd lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "divexact" `Quick test_divexact;
          Alcotest.test_case "divides" `Quick test_divides;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "to_int_opt bounds" `Quick test_to_int_opt_bounds;
          Alcotest.test_case "limb carry roundtrip" `Quick
            test_limb_carry_roundtrip;
          Alcotest.test_case "integer_root at limb boundaries" `Quick
            test_integer_root_boundaries;
          Alcotest.test_case "hash pinned" `Quick test_hash_pinned;
        ] );
      ( "properties",
        [
          prop_add_commutes;
          prop_add_assoc;
          prop_mul_commutes;
          prop_mul_assoc;
          prop_distrib;
          prop_sub_inverse;
          prop_matches_native;
          prop_divmod_invariant;
          prop_string_roundtrip;
          prop_gcd_divides;
          prop_compare_total_order;
          prop_hash_consistent;
          prop_num_bits_bound;
          prop_canonical;
        ] );
      ( "fast path",
        [
          prop_fast_add_matches_limbs;
          prop_fast_mul_matches_limbs;
          prop_fast_divmod_matches_limbs;
          prop_fast_gcd_matches_limbs;
          prop_native_roundtrip;
        ] );
    ]
