module Z = Polysynth_zint.Zint

type rng = { mutable state : int }

let make_rng seed = { state = (seed * 2654435761) lor 1 }

let next rng bound =
  let s = rng.state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  rng.state <- s land max_int;
  rng.state mod bound

let word rng =
  let hi = next rng (1 lsl 30) in
  let lo = next rng (1 lsl 30) in
  (hi lsl 30) lor lo

let assignment rng ~width names =
  List.map (fun v -> (v, Z.erem_pow2 (Z.of_int (word rng)) width)) names
