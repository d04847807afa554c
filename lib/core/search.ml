module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost

type objective = Min_area | Min_delay | Min_power | Min_ops

type options = {
  width : int;
  model : Cost.model;
  objective : objective;
  exhaustive_limit : int;
  sweeps : int;
  budget : (unit -> bool) option;
}

let default_options ~width =
  {
    width;
    model = Cost.default;
    objective = Min_area;
    exhaustive_limit = 4096;
    sweeps = 4;
    budget = None;
  }

type selection = {
  prog : Prog.t;
  labels : string list;
  cost : Cost.report;
  counts : Dag.counts;
  combinations_evaluated : int;
  exhaustive : bool;
  budget_exhausted : bool;
}

let prog_of_choice (r : Represent.t) choice =
  let outputs =
    List.mapi
      (fun i (rep : Represent.rep) ->
        (Printf.sprintf "P%d" (i + 1), rep.Represent.expr))
      choice
  in
  let used =
    List.concat_map (fun (_, e) -> Expr.vars e) outputs
    |> List.sort_uniq String.compare
  in
  let bindings =
    List.filter (fun (n, _) -> List.mem n used) (Blocktab.bindings r.Represent.table)
  in
  { Prog.bindings; outputs }

(* lexicographic objective key; [power] is only called under Min_power *)
let key options (cost : Cost.report) counts ~power =
  let area = float_of_int cost.Cost.area in
  let ops = float_of_int (Dag.total_ops counts) in
  match options.objective with
  | Min_area -> [| area; cost.Cost.delay; ops |]
  | Min_delay -> [| cost.Cost.delay; area; ops |]
  | Min_power -> [| power (); area; ops |]
  | Min_ops -> [| ops; area; cost.Cost.delay |]

let power options prog =
  let netlist = Polysynth_hw.Netlist.of_prog ~width:options.width prog in
  (Polysynth_hw.Power.estimate ~samples:16 netlist).Polysynth_hw.Power.total

let score_full options prog =
  let cost = Cost.of_prog ~model:options.model ~width:options.width prog in
  let counts = Prog.counts prog in
  (key options cost counts ~power:(fun () -> power options prog), cost, counts)

let score options prog =
  let key, _, _ = score_full options prog in
  key

let choice_of (r : Represent.t) idx =
  List.mapi (fun i reps -> List.nth reps idx.(i)) (Array.to_list r.Represent.reps)

(* One program DAG holds every block binding and every representation of
   every polynomial.  Block definitions refer only to input variables, and
   hash-consing makes the nodes reachable from a choice's roots the same
   structures as in that choice's own program DAG, so the score is the
   same. *)
let choice_scorer options (r : Represent.t) =
  let reps = r.Represent.reps in
  let outputs =
    Array.to_list reps
    |> List.concat_map (List.map (fun (rep : Represent.rep) -> ("", rep.Represent.expr)))
  in
  let dag, roots =
    Prog.to_dag { Prog.bindings = Blocktab.bindings r.Represent.table; outputs }
  in
  let roots = Array.of_list (List.map snd roots) in
  (* the index in [roots] of each polynomial's first representation *)
  let first = Array.make (Array.length reps) 0 in
  for i = 1 to Array.length reps - 1 do
    first.(i) <- first.(i - 1) + List.length reps.(i - 1)
  done;
  let scorer = Cost.scorer ~model:options.model ~width:options.width dag in
  let chosen = Array.map (fun f -> roots.(f)) first in
  fun idx ->
    for i = 0 to Array.length chosen - 1 do
      chosen.(i) <- roots.(first.(i) + idx.(i))
    done;
    let cost, counts = Cost.score scorer chosen in
    let power () = power options (prog_of_choice r (choice_of r idx)) in
    (key options cost counts ~power, cost, counts)

(* lexicographic [<] on keys of equal length *)
let better (a : float array) b =
  let rec from i =
    i < Array.length a && (a.(i) < b.(i) || (a.(i) = b.(i) && from (i + 1)))
  in
  from 0

exception Budget_exhausted

let select options (r : Represent.t) =
  let n = Array.length r.Represent.reps in
  let sizes = Array.map List.length r.Represent.reps in
  let score = choice_scorer options r in
  let evaluated = ref 0 in
  let exhausted = ref false in
  (* the very first candidate is always evaluated, so budget exhaustion
     still leaves a complete (if unoptimized) selection to return *)
  let may_continue () =
    match options.budget with None -> true | Some ok -> ok ()
  in
  let eval idx =
    incr evaluated;
    score idx
  in
  let best = ref (eval (Array.make n 0), Array.make n 0) in
  (* score [idx]; keep it (with a copy of [idx]) when it beats the best *)
  let try_choice idx =
    let (ts, _, _) as trial = eval idx in
    let (bs, _, _), _ = !best in
    better ts bs
    && begin
      best := (trial, Array.copy idx);
      true
    end
  in
  let total = Represent.num_combinations r in
  let exhaustive = total <= options.exhaustive_limit in
  if n > 0 then begin
    if exhaustive then begin
      (* odometer over all combinations *)
      let idx = Array.make n 0 in
      let rec advance pos =
        if pos < n then begin
          if idx.(pos) + 1 < sizes.(pos) then begin
            idx.(pos) <- idx.(pos) + 1;
            true
          end
          else begin
            idx.(pos) <- 0;
            advance (pos + 1)
          end
        end
        else false
      in
      let keep_going = ref (advance 0) in
      while !keep_going do
        if not (may_continue ()) then begin
          exhausted := true;
          keep_going := false
        end
        else begin
          ignore (try_choice idx);
          keep_going := advance 0
        end
      done
    end
    else begin
      (* coordinate descent from the all-first choice: re-optimize one
         polynomial at a time against the sharing created by the others *)
      let idx = Array.make n 0 in
      let improved = ref true in
      let sweep = ref 0 in
      (try
         while !improved && !sweep < options.sweeps do
           improved := false;
           incr sweep;
           for i = 0 to n - 1 do
             let best_k = ref idx.(i) in
             for k = 0 to sizes.(i) - 1 do
               if k <> !best_k then begin
                 if not (may_continue ()) then raise_notrace Budget_exhausted;
                 idx.(i) <- k;
                 if try_choice idx then begin
                   best_k := k;
                   improved := true
                 end
               end
             done;
             (* [best] was last updated at idx.(i) = !best_k (or never for
                this position), so this restores the configuration it
                scored *)
             idx.(i) <- !best_k
           done
         done
       with Budget_exhausted -> exhausted := true)
    end
  end;
  let (_, cost, counts), idx = !best in
  let choice = choice_of r idx in
  {
    prog = prog_of_choice r choice;
    labels = List.map (fun (rep : Represent.rep) -> rep.Represent.label) choice;
    cost;
    counts;
    combinations_evaluated = !evaluated;
    exhaustive;
    budget_exhausted = !exhausted;
  }
