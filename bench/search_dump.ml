(* Print Search.select's result over a fixed corpus, so that two commits
   can be compared byte for byte:

     dune exec bench/search_dump.exe > a.txt   (on each commit)
     cmp a.txt b.txt

   The corpus is the one of bench/represent_dump.ml: Tables 14.1/14.2, the
   8 Table 14.3 systems, the extended suite and the 24 random_mix systems
   (Random_system.grid ~seed:2009), each built with the ring context at its
   width and without it.  Every system is searched under min-area,
   min-delay and min-ops with the default options.  Systems with at most
   [small] combinations are also searched under min-power, and once more
   under each objective with [exhaustive_limit = 1], which pins the
   coordinate-descent path.  Each section is the header
   "== NAME (ring on|off) combinations=N", then per search a line
   "-- OBJECTIVE limit=L", the chosen labels, one line of area, delay (all
   17 significant digits), ops, combinations evaluated and exhaustive, and
   Prog.pp of the winner. *)

module Benchmarks = Polysynth_workloads.Benchmarks
module Examples = Polysynth_workloads.Examples
module Extended = Polysynth_workloads.Extended
module Random_system = Polysynth_workloads.Random_system
module Represent = Polysynth_core.Represent
module Search = Polysynth_core.Search
module Canonical = Polysynth_finite_ring.Canonical
module Cost = Polysynth_hw.Cost
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog

let small = 64

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

let objective_name = function
  | Search.Min_area -> "min-area"
  | Search.Min_delay -> "min-delay"
  | Search.Min_power -> "min-power"
  | Search.Min_ops -> "min-ops"

let print_search ~width r objective exhaustive_limit =
  let options =
    { (Search.default_options ~width) with Search.objective; exhaustive_limit }
  in
  let s = Search.select options r in
  Format.printf "-- %s limit=%d@.labels: %s@." (objective_name objective)
    exhaustive_limit
    (String.concat "; " s.Search.labels);
  Format.printf "area=%d delay=%.17g ops=%d evaluated=%d exhaustive=%b@.%a@."
    s.Search.cost.Cost.area s.Search.cost.Cost.delay
    (Dag.total_ops s.Search.counts)
    s.Search.combinations_evaluated s.Search.exhaustive Prog.pp s.Search.prog

let () =
  List.iter
    (fun (name, polys, width) ->
      List.iter
        (fun ring ->
          let ctx =
            if ring then Some (Canonical.make_ctx ~out_width:width ()) else None
          in
          let r = Represent.build ?ctx polys in
          let combinations = Represent.num_combinations r in
          Format.printf "== %s (ring %s) combinations=%d@." name
            (if ring then "on" else "off")
            combinations;
          let is_small = combinations <= small in
          let objectives =
            [ Search.Min_area; Search.Min_delay; Search.Min_ops ]
            @ if is_small then [ Search.Min_power ] else []
          in
          List.iter (fun o -> print_search ~width r o 4096) objectives;
          if is_small then
            List.iter (fun o -> print_search ~width r o 1) objectives)
        [ true; false ])
    (systems ())
