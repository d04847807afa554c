(* The synthesis benchmark.

   One process runs one workload: it generates the workload's systems,
   sends them through the public [Engine] API in passes until the
   measuring time is spent, checks every output, and prints the metrics as
   the last line of standard output, one JSON object.  The systems are
   fixed per workload; the seed drives the random input vectors of the
   netlist spot check.

   With [--trace 0] it reports the end-to-end metrics of the plain passes.
   With [--trace 1] it runs one pass that calls every layer of Algorithm 7
   from this file with a span around each call (wall time, allocated
   words, counts), then the determinism re-runs through the engine, and
   reports the per-layer metrics.  No span lives inside the engine; the
   engine's own [Trace] stages and memo tables are recorded beside the
   spans for cross-checking.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1 *)

module Poly = Polysynth_poly.Poly
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Canonical = Polysynth_finite_ring.Canonical
module Cost = Polysynth_hw.Cost
module Netlist = Polysynth_hw.Netlist
module Engine = Polysynth_engine.Engine
module Search = Polysynth_core.Search
module Represent = Polysynth_core.Represent
module Blocks = Polysynth_core.Blocks
module Blocktab = Polysynth_core.Blocktab
module Algdiv = Polysynth_core.Algdiv
module Canonical_rep = Polysynth_core.Canonical_rep
module Cce = Polysynth_core.Cce
module Horner = Polysynth_core.Horner
module Integrated = Polysynth_core.Integrated
module Baselines = Polysynth_core.Baselines
module Squarefree = Polysynth_factor.Squarefree
module Extract = Polysynth_cse.Extract
module Equiv = Polysynth_analysis.Equiv
module Benchmarks = Polysynth_workloads.Benchmarks
module Examples = Polysynth_workloads.Examples
module Extended = Polysynth_workloads.Extended
module Random_system = Polysynth_workloads.Random_system

let now = Unix.gettimeofday

(* ---- workloads ---------------------------------------------------------- *)

type system = {
  name : string;
  polys : Poly.t list;
  width : int;
  ctx : Canonical.ctx option;
}

type request =
  | Run  (** [Engine.run Proposed], once per objective leg *)
  | Compare  (** [Engine.compare_methods] *)

type workload = {
  wname : string;
  request : request;
  ring : bool;  (** ring context at the system's published width *)
  objectives : Search.objective list;
      (** legs per system, in order; the first is cold, the rest are served
          from the representation store the first one filled *)
  systems : unit -> (string * Poly.t list * int) list;
      (** name, polynomials, published width, in the order they are sent *)
  setup_repeats : int;
      (** set-ups timed before the first pass, about half a second; a fifth
          as many follow every pass.  A count, not a time limit, so that
          the garbage before the first pass, and so the peak heap, is the
          same on every run *)
}

let named names =
  let all = Benchmarks.all () in
  List.map
    (fun n ->
      match List.find_opt (fun b -> b.Benchmarks.name = n) all with
      | Some b -> (b.Benchmarks.name, b.Benchmarks.polys, b.Benchmarks.width)
      | None -> failwith ("unknown benchmark " ^ n))
    names

let extended () =
  List.map
    (fun (b : Benchmarks.t) -> (b.Benchmarks.name, b.Benchmarks.polys, b.Benchmarks.width))
    (Extended.extended_suite ())

(* random_mix holds one system per cell of the grid
   (2..3 variables) x (degree 2..3) x (3..8 polynomials), all with shared
   linear blocks and width 16; cell seed =
   random_mix_seed * 1000 + 100 * vars + 10 * degree + polys.
   The corpus seed is fixed rather than taken from the command line: on
   corpora drawn from seeds 1..5 one pass took 2.9 s to 6.7 s, a spread no
   usable regression bound could absorb. *)
let random_mix_seed = 2009

let random_corpus () =
  let seed = random_mix_seed in
  List.concat_map
    (fun num_vars ->
      List.concat_map
        (fun max_degree ->
          List.map
            (fun num_polys ->
              let cfg =
                {
                  Random_system.default_config with
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
                Random_system.generate ~seed:cell_seed cfg,
                16 ))
            [ 3; 4; 5; 6; 7; 8 ])
        [ 2; 3 ])
    [ 2; 3 ]

let workloads =
  [
    (* The real hot path: four Savitzky-Golay banks hold about 95% of the
       Table 14.3 suite's time, and representation building is about 90%
       of each request.  Search is under 1% and Power is never called. *)
    {
      wname = "sg_banks";
      request = Run;
      ring = true;
      objectives = [ Search.Min_area ];
      systems = (fun () -> named [ "SG 4x2"; "SG 4x3"; "SG 5x2"; "SG 5x3" ]);
      setup_repeats = 15;
    };
    (* The --compare / Table 14.3 request on every short system with a
       published number: no layer dominates, Direct and Horner are served
       from the store Proposed filled, and Factor+CSE runs Extract in
       literal-coefficient mode. *)
    {
      wname = "paper_small";
      request = Compare;
      ring = true;
      objectives = [ Search.Min_area ];
      systems =
        (fun () ->
          [
            ("T14.1", Examples.table_14_1, 16);
            ("T14.2", Examples.table_14_2, 16);
          ]
          @ named [ "SG 3x2"; "Quad"; "Mibench"; "MVCS" ]
          @ extended ());
      setup_repeats = 15;
    };
    (* Exactly the traffic of Tables.objective_rows (--objectives): exact
       arithmetic, one cold min-area request per system, then three
       requests served from the warm store.  This bypasses Algdiv after the
       first leg; Search scoring through Netlist, Cost and Power is the
       bulk of the pass, and the only place Power is measured. *)
    {
      wname = "objective_sweep";
      request = Run;
      ring = false;
      objectives = [ Search.Min_area; Min_delay; Min_power; Min_ops ];
      systems = (fun () -> named [ "Quad"; "Mibench"; "MVCS" ]);
      setup_repeats = 15;
    };
    (* Structure that is not hand-picked, with heavy-tailed latency; kinds
       that never win on the named systems win here. *)
    {
      wname = "random_mix";
      request = Run;
      ring = true;
      objectives = [ Search.Min_area ];
      systems = random_corpus;
      setup_repeats = 600;
    };
  ]

let objective_name = function
  | Search.Min_area -> "min_area"
  | Min_delay -> "min_delay"
  | Min_power -> "min_power"
  | Min_ops -> "min_ops"

let setup (w : workload) =
  List.map
    (fun (name, polys, width) ->
      let ctx =
        if w.ring then Some (Canonical.make_ctx ~out_width:width ()) else None
      in
      { name; polys; width; ctx })
    (w.systems ())

let config ?(parallelism = 1) ?(objective = Search.Min_area) s =
  {
    (Engine.Config.default ~width:s.width) with
    Engine.Config.ctx = s.ctx;
    objective;
    parallelism;
  }

(* ---- reference numbers -------------------------------------------------- *)

(* Transcribed by hand from EXPERIMENTS.md; never regenerated by the
   program.  Areas are gate equivalents, delays are rounded to the one
   decimal the tables print. *)

(* Table 14.3: base (factoring + CSE) area, delay; proposed area, delay *)
let table_14_3 =
  [
    ("SG 3x2", (10848, "45.6", 8000, "44.6"));
    ("SG 4x2", (11104, "48.7", 10112, "46.9"));
    ("SG 4x3", (26816, "80.6", 25536, "76.7"));
    ("SG 5x2", (15808, "50.5", 12864, "44.3"));
    ("SG 5x3", (33872, "83.3", 30480, "81.6"));
    ("Quad", (7600, "41.8", 2656, "38.0"));
    ("Mibench", (3360, "23.8", 2152, "23.8"));
    ("MVCS", (8352, "63.6", 3296, "57.4"));
  ]

(* Tables 14.1 and 14.2: proposed post-CSE MULT / ADD *)
let op_counts = [ ("T14.1", (8, 1)); ("T14.2", (14, 12)) ]

(* extended workloads: area improvement of proposed over factoring + CSE, % *)
let extended_gain =
  [ ("FIR8", "24.1"); ("Biquad", "64.8"); ("Cheb5", "0.0"); ("Lighting", "0.0") ]

let d1 x = Printf.sprintf "%.1f" x

(* ---- host reference ----------------------------------------------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* On a shared host the memory system's speed drifts by 10-30% over
   seconds to minutes, and the engine's wall times drift with it: whole
   runs of the same code read 0.8 s or 1.25 s a pass.  A fixed,
   allocation-heavy reference computation (balanced-tree inserts, the
   engine's own kind of work) timed between requests follows that drift,
   while a pure-arithmetic loop does not.  Request times are therefore
   reported in units of it ("ref"): a request of 20 ref took as long as 20
   reference computations timed around it.  README.md gives the spreads
   over runs in both units.  The reference does not call the engine, so a
   change to the engine moves these figures as it moves the wall times,
   which are printed beside them.

   Each of its four rounds starts on an empty minor heap (the collection
   is not timed) and allocates less than the minor heap holds, so nothing
   it builds is promoted and the engine's major heap, whose peak is a
   metric, does not see it. *)
module Int_map = Map.Make (Int)

let reference () =
  let total = ref 0. in
  for _ = 1 to 4 do
    Gc.minor ();
    let t0 = now () in
    let m = ref Int_map.empty and x = ref 12345 in
    for _ = 1 to 2_500 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      m := Int_map.add (!x land 0x3ff) !x !m
    done;
    ignore (Sys.opaque_identity !m);
    total := !total +. (now () -. t0)
  done;
  !total

(* The reference runs twice just before a request and twice just after
   it; the request's unit is the median of the four, so that one run
   slowed by a passing stall does not set it.  The count is fixed so that
   the minor collections the reference adds, and with them the engine's
   GC schedule and peak heap, do not depend on the host's speed. *)
let reference_around f =
  let before = List.init 2 (fun _ -> reference ()) in
  let t0 = now () in
  let r = f () in
  let latency = now () -. t0 in
  let after = List.init 2 (fun _ -> reference ()) in
  (r, latency, median (before @ after))

(* ---- one request -------------------------------------------------------- *)

type outcome = {
  latency : float;
  ref_s : float;  (** the host reference's time around the request *)
  reports : Engine.report list;  (** empty when the request raised *)
  trace : Engine.Trace.t option;
  errors : string list;
}

let proposed_of o =
  List.find (fun r -> r.Engine.method_name = Engine.Proposed) o.reports

let table_hits name = function
  | None -> 0
  | Some (t : Engine.Trace.t) ->
    List.fold_left
      (fun acc (n, h, _) -> if n = name then acc + h else acc)
      0 t.Engine.Trace.cache_tables

let check_report ~seed s (r : Engine.report) =
  let label = Engine.method_label r.Engine.method_name in
  let cert =
    match r.Engine.cert with
    | Equiv.Verified -> []
    | c -> [ Printf.sprintf "%s %s: certificate %s" s.name label (Equiv.cert_label c) ]
  in
  let spot =
    match
      Equiv.spot_check_netlist ~seed s.polys
        (Netlist.of_prog ~width:s.width r.Engine.prog)
    with
    | Ok () -> []
    | Error _ -> [ Printf.sprintf "%s %s: netlist spot check mismatch" s.name label ]
  in
  cert @ spot

(* Reference numbers hold for the min-area legs only. *)
let check_references s reports =
  let find m = List.find_opt (fun r -> r.Engine.method_name = m) reports in
  let area_delay what (r : Engine.report) area delay =
    if r.Engine.cost.Cost.area = area && d1 r.Engine.cost.Cost.delay = delay then []
    else
      [
        Printf.sprintf "%s %s: area %d delay %s, expected %d %s" s.name what
          r.Engine.cost.Cost.area (d1 r.Engine.cost.Cost.delay) area delay;
      ]
  in
  let t143 =
    match List.assoc_opt s.name table_14_3 with
    | None -> []
    | Some (ba, bd, pa, pd) ->
      (match find Engine.Factor_cse with
       | Some r -> area_delay "base" r ba bd
       | None -> [])
      @ (match find Engine.Proposed with
         | Some r -> area_delay "proposed" r pa pd
         | None -> [])
  in
  let counts =
    match (List.assoc_opt s.name op_counts, find Engine.Proposed) with
    | Some (m, a), Some r ->
      let c = r.Engine.counts in
      if c.Dag.mults = m && c.Dag.adds = a then []
      else
        [
          Printf.sprintf "%s: %d/%d MULT/ADD, expected %d/%d" s.name c.Dag.mults
            c.Dag.adds m a;
        ]
    | _ -> []
  in
  let gain =
    match
      (List.assoc_opt s.name extended_gain, find Engine.Factor_cse, find Engine.Proposed)
    with
    | Some pct, Some b, Some p ->
      let got =
        d1
          (100.
          *. (1.
             -. float_of_int p.Engine.cost.Cost.area
                /. float_of_int b.Engine.cost.Cost.area))
      in
      if got = pct then []
      else [ Printf.sprintf "%s: area gain %s%%, expected %s%%" s.name got pct ]
    | _ -> []
  in
  t143 @ counts @ gain

(* The request alone is timed; checking happens after the pass, and the
   host reference runs outside the timed span. *)
let send w s ~parallelism objective =
  let cfg = config ~parallelism ~objective s in
  let (reports, trace), latency, ref_s =
    reference_around (fun () ->
        match w.request with
        | Run ->
          let r, t = Engine.run cfg Engine.Proposed s.polys in
          ([ r ], t)
        | Compare -> Engine.compare_methods cfg s.polys)
  in
  { latency; ref_s; reports; trace = Some trace; errors = [] }

(* ---- passes ------------------------------------------------------------- *)

let post_cse_ops (c : Dag.counts) = c.Dag.mults + c.Dag.adds

(* What must not change between passes, parallelism or memo states. *)
type result_key = { area : int; delay : float; ops : int; labels : string list }

let key_of (r : Engine.report) =
  {
    area = r.Engine.cost.Cost.area;
    delay = r.Engine.cost.Cost.delay;
    ops = post_cse_ops r.Engine.counts;
    labels = r.Engine.labels;
  }

type pass = {
  wall : float;
  heap_words : int;  (** the process's peak major heap when the pass ended *)
  outcomes : (system * Search.objective * outcome) list;
}

(* One pass: the memo is emptied first (unless [warm]), then every system
   gets its legs in order.  The first request on a system in a cold pass
   must not hit the representation store: a leaked memo would fake a
   speed-up of two orders of magnitude. *)
let run_pass ?(parallelism = 1) ?(warm = false) ~seed w systems =
  if not warm then Engine.clear_cache ();
  let t0 = now () in
  let sent =
    List.concat_map
      (fun s ->
        List.map
          (fun objective ->
            let o =
              try send w s ~parallelism objective
              with e ->
                {
                  latency = 0.;
                  ref_s = 1.;
                  reports = [];
                  trace = None;
                  errors =
                    [ Printf.sprintf "%s: raised %s" s.name (Printexc.to_string e) ];
                }
            in
            (s, objective, o))
          w.objectives)
      systems
  in
  let wall = now () -. t0 in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* in a compare request Direct and Horner read back the store Proposed
     just filled *)
  let own_hits = match w.request with Run -> 0 | Compare -> 2 in
  let check (s, objective, o) =
    let cold_hit =
      (not warm)
      && objective = List.hd w.objectives
      && table_hits "representation" o.trace > own_hits
    in
    let errors =
      o.errors
      @ (if cold_hit then [ s.name ^ ": cold request hit the representation store" ]
         else [])
      @ List.concat_map (check_report ~seed s) o.reports
      @
      if objective = Search.Min_area then check_references s o.reports else []
    in
    (s, objective, { o with errors })
  in
  { wall; heap_words; outcomes = List.map check sent }

(* ---- statistics and output ---------------------------------------------- *)

type metric = string * float * string

let print_metrics (metrics : metric list) =
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-36s %16.6f %s\n" name value unit)
    metrics

let json_result ~correct ~attempted ~failed (metrics : metric list) =
  let metric (name, value, unit) =
    Printf.sprintf {|%s:{"value":%.17g,"unit":%s}|} (Engine.Trace.json_string name)
      value (Engine.Trace.json_string unit)
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed
    (String.concat "," (List.map metric metrics))

let megabytes words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* ---- the traced pass ---------------------------------------------------- *)

(* Per-layer totals and counts of the traced run, by metric name. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name n =
  Hashtbl.replace counts name
    (n +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A span around one call into a layer: wall time and allocated words. *)
let timed layer f =
  let w0 = allocated () in
  let t0 = now () in
  let r = f () in
  count (layer ^ ".s") (now () -. t0);
  count (layer ^ ".alloc_mw") ((allocated () -. w0) /. 1e6);
  r

let kinds =
  [
    "direct"; "horner"; "sqfree"; "factorize"; "canonical"; "canonical_split";
    "coeff_fold"; "cce"; "algdiv"; "ted"; "groebner";
  ]

let variants =
  [
    ("cce_first", "integrated-cce-first", Integrated.decompose_cce_first);
    ("cubes_first", "integrated-cubes-first", Integrated.decompose_cubes_first);
    ("refine", "integrated-refine", fun ps -> Integrated.refine_literal_extraction ps);
    ( "kcm",
      "integrated-kcm",
      Integrated.refine_literal_extraction ~strategy:Extract.Kcm_rectangles );
  ]

let objectives = [ Search.Min_area; Min_delay; Min_power; Min_ops ]

let span_layers =
  [
    "blocks.discover"; "represent.build"; "algdiv.decompose"; "squarefree";
    "canonical_rep"; "cce.extract"; "horner.rep";
  ]
  @ List.map (fun o -> "search.select." ^ objective_name o) objectives
  @ [ "search.score" ]
  @ List.map (fun (v, _, _) -> "integrated." ^ v) variants
  @ [ "baselines.factor_cse"; "equiv.certify" ]

(* Every layer of the Proposed flow (and, for a compare request, the
   factoring + CSE baseline), called from here in the engine's order on one
   system, ending with the engine's competition: the search result and the
   integrated variants are scored under the objective and the first best
   wins.  Returns the winner per objective leg, the reference the engine's
   results are checked against. *)
let layer_pass w s =
  let divisors =
    timed "blocks.discover" (fun () -> Blocks.discover s.polys)
  in
  count "blocks.discover.found" (float_of_int (List.length divisors));
  let store =
    timed "represent.build" (fun () -> Represent.build ?ctx:s.ctx s.polys)
  in
  Array.iter
    (List.iter (fun (r : Represent.rep) -> count ("represent.built." ^ r.Represent.label) 1.))
    store.Represent.reps;
  List.iter
    (fun p ->
      let session = Algdiv.make_session (Blocktab.create ()) ~divisors in
      ignore (timed "algdiv.decompose" (fun () -> Algdiv.decompose session p));
      (* Represent.build skips constants the same way *)
      if not (Poly.is_zero p || Poly.is_const p) then
        ignore (timed "squarefree" (fun () -> Squarefree.squarefree p));
      (match s.ctx with
       | Some ctx ->
         ignore
           (timed "canonical_rep" (fun () ->
                Canonical_rep.rep ctx (Blocktab.create ()) p))
       | None -> ());
      ignore (timed "cce.extract" (fun () -> Cce.extract p));
      ignore (timed "horner.rep" (fun () -> Horner.rep p)))
    s.polys;
  let selections =
    List.map
      (fun objective ->
        let cfg = config ~objective s in
        let options = Engine.Config.search_options cfg in
        let o = objective_name objective in
        let sel = timed ("search.select." ^ o) (fun () -> Search.select options store) in
        count ("search.combinations." ^ o)
          (float_of_int sel.Search.combinations_evaluated);
        (objective, cfg, options, sel))
      w.objectives
  in
  let progs =
    List.map
      (fun (v, label, build) -> (label, timed ("integrated." ^ v) (fun () -> build s.polys)))
      variants
  in
  let winners =
    List.map
      (fun (objective, (cfg : Engine.Config.t), options, sel) ->
        let candidates =
          (sel.Search.labels, sel.Search.prog)
          :: List.map (fun (label, prog) -> ([ label ], prog)) progs
        in
        let scored =
          List.map
            (fun (labels, prog) ->
              (timed "search.score" (fun () -> Search.score options prog), labels, prog))
            candidates
        in
        let _, labels, prog =
          List.fold_left
            (fun ((bk, _, _) as best) ((ck, _, _) as c) -> if ck < bk then c else best)
            (List.hd scored) (List.tl scored)
        in
        let cost = Cost.of_prog ~model:cfg.Engine.Config.model ~width:s.width prog in
        ( objective,
          prog,
          {
            area = cost.Cost.area;
            delay = cost.Cost.delay;
            ops = post_cse_ops (Prog.counts prog);
            labels;
          } ))
      selections
  in
  let certified =
    List.map (fun (_, prog, _) -> prog) winners
    @
    if w.request = Compare then
      [ timed "baselines.factor_cse" (fun () -> Baselines.factor_cse s.polys) ]
    else []
  in
  List.iter
    (fun prog ->
      ignore (timed "equiv.certify" (fun () -> Equiv.certify ?ctx:s.ctx s.polys prog)))
    certified;
  List.map (fun (objective, _, key) -> (objective, key)) winners

(* Which representation kinds, or which integrated variant, won. *)
let record_winner (k : result_key) =
  match k.labels with
  | [ l ] when String.starts_with ~prefix:"integrated-" l -> count "integrated.won" 1.
  | labels -> List.iter (fun l -> count ("represent.won." ^ l) 1.) labels

(* Requests of [p] whose Proposed result differs from the reference, as
   error messages. *)
let differs ~what reference (p : pass) =
  List.filter_map
    (fun (s, obj, o) ->
      match (o.reports, List.assoc_opt (s.name, obj) reference) with
      | [], _ | _, None -> None
      | _, Some k ->
        if key_of (proposed_of o) = k then None
        else
          Some
            (Printf.sprintf "%s %s: result differs %s" s.name (objective_name obj)
               what))
    p.outcomes

(* "factor+cse/certify" -> "factor_cse.certify" *)
let stage_metric stage =
  String.map (function '/' -> '.' | '+' -> '_' | c -> c) stage

let engine_stages =
  [
    "proposed/represent"; "proposed/search"; "proposed/integrated";
    "proposed/certify"; "direct/baseline"; "direct/certify"; "horner/baseline";
    "horner/certify"; "factor+cse/baseline"; "factor+cse/certify";
  ]

let memo_tables =
  [
    ("representation", "engine.store");
    ("kernel", "kernel.memo");
    ("flat-cost", "extract.cost_memo");
  ]

(* The engine's own view of a pass, summed over its requests. *)
let record_engine_trace (p : pass) =
  List.iter
    (fun (_, _, o) ->
      Option.iter
        (fun (t : Engine.Trace.t) ->
          List.iter
            (fun (st : Engine.Trace.stage) ->
              count
                ("engine." ^ stage_metric st.Engine.Trace.name ^ ".s")
                st.Engine.Trace.wall)
            t.Engine.Trace.stages;
          List.iter
            (fun (table, h, m) ->
              match List.assoc_opt table memo_tables with
              | Some prefix ->
                count (prefix ^ ".hits") (float_of_int h);
                count (prefix ^ ".misses") (float_of_int m)
              | None -> ())
            t.Engine.Trace.cache_tables)
        o.trace)
    p.outcomes

(* The min-power objective's worst cases, timed once outside every pass so
   that the Power scoring layer's tail stays visible. *)
let power_worst_cases ~seed =
  List.map
    (fun (metric, name, polys) ->
      let s =
        { name; polys; width = 16; ctx = Some (Canonical.make_ctx ~out_width:16 ()) }
      in
      Engine.clear_cache ();
      let t0 = now () in
      let r, _ = Engine.run (config ~objective:Search.Min_power s) Engine.Proposed polys in
      let dt = now () -. t0 in
      count metric dt;
      check_report ~seed s r)
    [
      ("power.worst.t14_2.s", "T14.2", Examples.table_14_2);
      ("power.worst.lighting.s", "Lighting", Extended.lighting ());
    ]

let per_layer_names =
  List.concat_map (fun l -> [ l ^ ".s"; l ^ ".alloc_mw" ]) span_layers
  @ [ "blocks.discover.found" ]
  @ List.map (fun k -> "represent.built." ^ k) kinds
  @ List.map (fun k -> "represent.won." ^ k) kinds
  @ List.concat_map
      (fun o ->
        let o = objective_name o in
        [ "search.combinations." ^ o; "search.per_candidate_us." ^ o ])
      objectives
  @ [ "integrated.won" ]
  @ List.concat_map (fun (_, p) -> [ p ^ ".hits"; p ^ ".misses" ]) memo_tables
  @ List.map (fun st -> "engine." ^ stage_metric st ^ ".s") engine_stages
  @ [
      "determinism.mismatches"; "trace.pass_s"; "power.worst.t14_2.s";
      "power.worst.lighting.s";
    ]

let unit_of name =
  if String.ends_with ~suffix:".s" name || String.ends_with ~suffix:"_s" name then "s"
  else if String.ends_with ~suffix:".alloc_mw" name then "Mwords"
  else if String.starts_with ~prefix:"search.per_candidate_us." name then "us"
  else "count"

let per_layer_metrics () : metric list =
  List.iter
    (fun o ->
      let o = objective_name o in
      match
        ( Hashtbl.find_opt counts ("search.select." ^ o ^ ".s"),
          Hashtbl.find_opt counts ("search.combinations." ^ o) )
      with
      | Some t, Some n when n > 0. -> count ("search.per_candidate_us." ^ o) (t /. n *. 1e6)
      | _ -> ())
    objectives;
  List.map
    (fun name ->
      (name, Option.value ~default:0. (Hashtbl.find_opt counts name), unit_of name))
    per_layer_names

(* ---- the run ------------------------------------------------------------ *)

(* [n] timed generations of the workload's systems: the last one's
   systems, and every generation's time. *)
let timed_setup w n =
  let rec go k systems times =
    if k = 0 then (systems, times)
    else
      let t0 = now () in
      let systems = setup w in
      go (k - 1) systems ((now () -. t0) :: times)
  in
  go n [] []

(* Errors, requests attempted and requests failed, over the passes'
   requests, the [drift] re-runs whose result changed, and [extra]
   one-off requests given by their error lists. *)
let tally passes ~drift ~extra =
  let outcomes = List.concat_map (fun p -> p.outcomes) passes in
  let errors =
    List.concat_map (fun (_, _, o) -> o.errors) outcomes @ drift @ List.concat extra
  in
  let failed_outcomes = List.filter (fun (_, _, o) -> o.errors <> []) outcomes in
  ( errors,
    List.length outcomes + List.length extra,
    List.length failed_outcomes + List.length drift
    + List.length (List.filter (fun e -> e <> []) extra) )

(* The Table 14.3 baseline of the systems a Run workload sends only to
   Proposed, checked once after the measured passes. *)
let check_baselines ~seed w systems =
  if w.request <> Run || not w.ring then []
  else
    List.filter_map
      (fun s ->
        match List.assoc_opt s.name table_14_3 with
        | None -> None
        | Some _ ->
          let errs =
            try
              let r, _ = Engine.run (config s) Engine.Factor_cse s.polys in
              check_report ~seed s r @ check_references s [ r ]
            with e -> [ s.name ^ ": raised " ^ Printexc.to_string e ]
          in
          Some errs)
      systems

(* setup_s is the fastest set-up of the run.  Set-ups are timed before
   the first pass and again after every pass, so they sample the host
   across the whole run.  The host moves between a fast and a slow state
   that slows set-up by up to half; a median follows how long the run
   spent in each, and between two sets of runs it moved by 25%, while
   the fastest set-up reads the program's own cost in the fast state. *)
let plain_run ~seed w systems ~setup_times ~seconds =
  let start = now () in
  (* passes go on while the next one, as long as the last, still ends
     within the measuring time; there is always at least one *)
  let rec loop acc setup_times =
    let p = run_pass ~seed w systems in
    (* after the pass, so its peak heap is already read *)
    let _, more = timed_setup w (max 1 (w.setup_repeats / 5)) in
    let acc = p :: acc and setup_times = more @ setup_times in
    if now () -. start +. p.wall <= seconds then loop acc setup_times
    else (List.rev acc, setup_times)
  in
  let passes, setup_times = loop [] setup_times in
  let first = List.hd passes in
  let reference =
    List.filter_map
      (fun (s, obj, o) ->
        if o.reports = [] then None else Some ((s.name, obj), key_of (proposed_of o)))
      first.outcomes
  in
  let drift =
    List.concat_map (differs ~what:"between passes" reference) (List.tl passes)
  in
  let errors, attempted, failed =
    tally passes ~drift ~extra:(check_baselines ~seed w systems)
  in
  let proposed =
    List.filter_map
      (fun (_, _, o) -> if o.reports = [] then None else Some (proposed_of o))
      first.outcomes
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. proposed in
  (* each request's median over the passes, so that a percentile falling
     between two clusters of requests (objective_sweep's warm legs and its
     cold ones are half and half) reads a steady request, not whichever
     single sample lands at the boundary *)
  let per_request f =
    let by_pass = List.map (fun p -> Array.of_list (List.map f p.outcomes)) passes in
    List.init (List.length first.outcomes) (fun i ->
        median (List.map (fun a -> a.(i)) by_pass))
  in
  let per_pass f =
    median
      (List.map (fun p -> List.fold_left (fun acc o -> acc +. f o) 0. p.outcomes) passes)
  in
  let seconds (_, _, o) = o.latency in
  let refs (_, _, o) = o.latency /. o.ref_s in
  let latencies = per_request refs in
  (* the wall times, for reading beside the reference units *)
  let wall = per_request seconds in
  Printf.printf "wall: pass %.4f s, request p50 %.3f ms, p90 %.3f ms\n"
    (per_pass seconds) (1000. *. quantile 0.5 wall) (1000. *. quantile 0.9 wall);
  let metrics =
    [
      ("setup_s", List.fold_left min infinity setup_times, "s");
      ("pass_ref", per_pass refs, "ref");
      ("request_p50_ref", quantile 0.5 latencies, "ref");
      ("request_p90_ref", quantile 0.9 latencies, "ref");
      ("area_ge", sum (fun r -> float_of_int r.Engine.cost.Cost.area), "GE");
      ("delay_sum", sum (fun r -> r.Engine.cost.Cost.delay), "gate_delays");
      ("ops", sum (fun r -> float_of_int (key_of r).ops), "count");
      ( "success_rate",
        float_of_int (attempted - failed) /. float_of_int (max 1 attempted),
        "ratio" );
      (* taken after the first pass: later passes only add heap the GC has
         not yet returned, so the figure would follow the pass count *)
      ("peak_heap_mb", megabytes first.heap_words, "MB");
    ]
  in
  Printf.printf "%d passes, %d requests per pass\n" (List.length passes)
    (List.length first.outcomes);
  (errors, attempted, failed, metrics)

(* The traced run: the layer pass, then the same requests through the
   engine cold at full parallelism, then again at parallelism 1 with the
   memo left warm.  Both engine passes must reproduce the layer pass's
   winners.  The engine's stages and memo tables are recorded from the
   cold pass.  No untraced pass is repeated here: on sg_banks these three
   passes already take about two thirds of the 180 s a run may last, so
   the tracing overhead is trace.pass_s minus the wall-time pass the
   untraced runs print. *)
let traced_run ~seed w systems =
  Engine.clear_cache ();
  let t0 = now () in
  let reference =
    List.concat_map
      (fun s -> List.map (fun (obj, k) -> ((s.name, obj), k)) (layer_pass w s))
      systems
  in
  count "trace.pass_s" (now () -. t0);
  List.iter (fun (_, k) -> record_winner k) reference;
  let parallel =
    run_pass ~parallelism:(Domain.recommended_domain_count ()) ~seed w systems
  in
  record_engine_trace parallel;
  let warm = run_pass ~warm:true ~seed w systems in
  let drift =
    differs ~what:"at full parallelism" reference parallel
    @ differs ~what:"with a warm memo" reference warm
  in
  count "determinism.mismatches" (float_of_int (List.length drift));
  let power =
    if w.wname = "objective_sweep" then power_worst_cases ~seed else []
  in
  let errors, attempted, failed = tally [ parallel; warm ] ~drift ~extra:power in
  (errors, attempted, failed, per_layer_metrics ())

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: sg_banks paper_small objective_sweep random_mix";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  let seed = int_of "seed" in
  let seconds = float_of_int (int_of "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let w =
    match List.find_opt (fun w -> w.wname = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let systems, setup_times = timed_setup w w.setup_repeats in
  (* the repeated set-ups' garbage goes before the peak heap is watched *)
  Gc.compact ();
  Printf.printf "workload %s, seed %d, %d systems: %s\n%!" w.wname seed
    (List.length systems)
    (String.concat ", " (List.map (fun s -> s.name) systems));
  let errors, attempted, failed, metrics =
    if trace then traced_run ~seed w systems
    else plain_run ~seed w systems ~setup_times ~seconds
  in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) errors;
  Printf.printf "%d requests attempted, %d failed\n" attempted failed;
  print_metrics metrics;
  print_endline (json_result ~correct:(errors = []) ~attempted ~failed metrics)
