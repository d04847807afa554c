(* End-to-end checks of the polysynth command line.  The binary is a
   declared dependency of this test and sits at a fixed path relative to
   the test's working directory. *)

let exe = "../bin/polysynth.exe"

(* stdout and exit code of [exe args] *)
let run args =
  let cmd = String.concat " " (exe :: List.map Filename.quote args) in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (out, code)
  | _ -> Alcotest.failf "%s: killed by a signal" cmd

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_contains out needle =
  if not (contains out needle) then
    Alcotest.failf "expected %S in output:\n%s" needle out

let test_benchmark_trace_text () =
  let out, code = run [ "--benchmark"; "Quad"; "--trace" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains out "Quad";
  check_contains out "verified";
  check_contains out "proposed/represent";
  check_contains out "certificate: proposed"

let test_benchmark_json () =
  let out, code = run [ "--benchmark"; "Quad"; "--json" ] in
  Alcotest.(check int) "exit code" 0 code;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "one line of output" 1 (List.length lines);
  let line = List.hd lines in
  Alcotest.(check bool) "one object" true
    (String.starts_with ~prefix:{|{"benchmarks":[{"name":"Quad",|} line
     && String.ends_with ~suffix:"}]}" line);
  check_contains line {|"verified":true|};
  check_contains line {|"reports":[{"method":"proposed"|};
  check_contains line {|"trace":{"parallelism":|};
  check_contains line {|"stages":[{"name":"proposed/represent"|}

let test_benchmark_unknown () =
  let _, code = run [ "--benchmark"; "no such system"; "--json" ] in
  Alcotest.(check int) "exit code" 1 code

let () =
  Alcotest.run "cli"
    [
      ( "benchmark",
        [
          Alcotest.test_case "--trace prints the trace" `Quick
            test_benchmark_trace_text;
          Alcotest.test_case "--json prints one object" `Quick
            test_benchmark_json;
          Alcotest.test_case "unknown name" `Quick test_benchmark_unknown;
        ] );
    ]
