(* Self-test of the benchmark's correctness checks: every check passes on
   the program's real output and fails on a perturbed or tampered copy,
   and every reference model agrees with the program's design of the
   kernel it models. Runs with `dune runtest`. *)

open Hls_core

let passes what = function Ok () -> () | Error e -> failwith (what ^ ": " ^ e)
let fails what = function
  | Ok () -> failwith (what ^ ": a tampered value passed")
  | Error _ -> ()

let simulate (d : Flow.design) v =
  (Hls_sim.Rtl_sim.run d.Flow.datapath ~inputs:v).Hls_sim.Rtl_sim.finals

let kernel_checks rng (k : Gen.kernel) =
  let d = Result.get_ok (Flow.synthesize_result k.Gen.source) in
  List.iter
    (fun v ->
      let finals = simulate d v and expected = k.Gen.reference v in
      passes k.Gen.name (Check.outputs ~what:k.Gen.name ~expected ~finals);
      fails (k.Gen.name ^ " perturbed")
        (Check.outputs ~what:k.Gen.name
           ~expected:(List.mapi (fun i (p, x) -> (p, if i = 0 then x + 1 else x)) expected)
           ~finals))
    (Gen.vectors rng k 3);
  let steps = Hls_sched.Cfg_sched.compute_steps d.Flow.sched in
  let bound steps = Check.schedule_bound ~what:k.Gen.name ~ops:k.Gen.ops ~crit:k.Gen.crit ~steps in
  passes (k.Gen.name ^ " steps") (bound steps);
  fails (k.Gen.name ^ " short schedule") (bound (((k.Gen.ops + 1) / 2) - 1))

let () =
  let rng = Random.State.make [| 7 |] in
  kernel_checks rng (Gen.fir rng ~tag:"t" 12);
  kernel_checks rng (Gen.cascade rng ~tag:"t" 3);
  (* the paper workloads' models, on the default design of each *)
  List.iter
    (fun (name, reference, gen) ->
      let d = Result.get_ok (Flow.synthesize_result (Workloads.find name)) in
      for _ = 1 to 3 do
        let v = gen rng in
        passes name (Check.outputs ~what:name ~expected:(reference v) ~finals:(simulate d v))
      done)
    Gen.paper;
  (* the frontier check against a real sweep, then tampered frontiers *)
  let src = Workloads.find "diffeq" in
  let points = Explore.sweep src in
  let values =
    List.map
      (fun (p : Explore.point) -> (p.Explore.label, (p.Explore.area, p.Explore.latency_ns)))
      points
  in
  let frontier reported = Check.frontier ~what:"diffeq" ~points:values ~reported in
  let stars = Check.starred_rows (Explore.table points) in
  passes "table frontier" (frontier stars);
  passes "pareto frontier"
    (frontier (List.map (fun (p : Explore.point) -> p.Explore.label) (Explore.pareto points)));
  let off = List.find (fun (l, _) -> not (List.mem l stars)) values |> fst in
  fails "frontier missing a point" (frontier (List.tl stars));
  fails "frontier with a dominated point" (frontier (off :: stars));
  passes "exact schedule" (Check.exact_not_longer ~what:"bb" [ (0, 4, 4); (1, 3, 5) ]);
  fails "longer exact schedule"
    (Check.exact_not_longer ~what:"bb" [ (0, 4, 4); (1, 6, 5) ]);
  passes "hash" (Check.same_hash ~what:"hit" ~first:"ab" ~got:"ab");
  fails "changed hash" (Check.same_hash ~what:"hit" ~first:"ab" ~got:"ac");
  let estimate got = Check.same_estimate ~what:"p" ~expected:(100, 512.) ~got in
  passes "estimate" (estimate (100, 512.));
  fails "changed area" (estimate (101, 512.));
  fails "changed latency" (estimate (100, 576.));
  print_endline "flowbench self-test: all checks pass on real output and fail on tampered output"
