(* Print Represent.build's output over a fixed corpus, so that two commits
   can be compared byte for byte:

     dune exec bench/represent_dump.exe > a.txt   (on each commit)
     cmp a.txt b.txt

   The corpus is Tables 14.1/14.2, the 8 Table 14.3 systems, the extended
   suite and the 24 random_mix systems (Random_system.grid ~seed:2009),
   each built with the ring context at its width and without it.  Each
   section is the header "== NAME (ring on|off)" and Represent.dump. *)

module Benchmarks = Polysynth_workloads.Benchmarks
module Examples = Polysynth_workloads.Examples
module Extended = Polysynth_workloads.Extended
module Random_system = Polysynth_workloads.Random_system
module Represent = Polysynth_core.Represent
module Canonical = Polysynth_finite_ring.Canonical

let systems () =
  let of_bench (b : Benchmarks.t) =
    (b.Benchmarks.name, b.Benchmarks.polys, b.Benchmarks.width)
  in
  [ ("T14.1", Examples.table_14_1, 16); ("T14.2", Examples.table_14_2, 16) ]
  @ List.map of_bench (Benchmarks.all ())
  @ List.map of_bench (Extended.extended_suite ())
  @ List.map
      (fun (name, polys) -> (name, polys, 16))
      (Random_system.grid ~seed:2009)

let () =
  List.iter
    (fun (name, polys, width) ->
      List.iter
        (fun ring ->
          let ctx =
            if ring then Some (Canonical.make_ctx ~out_width:width ()) else None
          in
          Printf.printf "== %s (ring %s)\n%s%!" name
            (if ring then "on" else "off")
            (Represent.dump (Represent.build ?ctx polys)))
        [ true; false ])
    (systems ())
