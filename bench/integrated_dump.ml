(* Print the programs of the kernel/cube extraction flows over a fixed
   corpus, so that two commits can be compared byte for byte:

     dune exec bench/integrated_dump.exe > a.txt   (on each commit)
     cmp a.txt b.txt

   The corpus is the one of bench/represent_dump.ml: Tables 14.1/14.2, the
   8 Table 14.3 systems, the extended suite and the 24 random_mix systems
   (Random_system.grid ~seed:2009).  Neither flow takes a ring context.
   Each section is the header "== NAME", then for every variant of
   Integrated.variants and for Baselines.factor_cse a line "-- LABEL"
   followed by Prog.pp of its program. *)

module Benchmarks = Polysynth_workloads.Benchmarks
module Examples = Polysynth_workloads.Examples
module Extended = Polysynth_workloads.Extended
module Random_system = Polysynth_workloads.Random_system
module Integrated = Polysynth_core.Integrated
module Baselines = Polysynth_core.Baselines
module Prog = Polysynth_expr.Prog

let systems () =
  let of_bench (b : Benchmarks.t) = (b.Benchmarks.name, b.Benchmarks.polys) in
  [ ("T14.1", Examples.table_14_1); ("T14.2", Examples.table_14_2) ]
  @ List.map of_bench (Benchmarks.all ())
  @ List.map of_bench (Extended.extended_suite ())
  @ Random_system.grid ~seed:2009

let () =
  List.iter
    (fun (name, polys) ->
      Printf.printf "== %s\n%!" name;
      List.iter
        (fun (label, prog) ->
          Format.printf "-- %s@.%a@." label Prog.pp prog)
        (Integrated.variants polys
        @ [ ("factor+cse", Baselines.factor_cse polys) ]))
    (systems ())
