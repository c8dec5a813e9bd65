(* The whole-flow benchmark: one command per workload, printing every
   metric by name and unit and, as its last line, one JSON object

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. --check runs one round of every workload with all
   correctness checks and exits non-zero if any fails. *)

let workloads = [ "synth-large"; "dse-sweep"; "serve-mixed" ]

(* Every per-layer metric, in print order. A workload reports the ones
   its traced run measures; the others are printed as 0, a layer that
   workload does not exercise. *)
let per_layer =
  [
    ("lang.frontend_ms", "ms"); ("transform.midend_ms", "ms"); ("alloc.fu_ms", "ms");
    ("alloc.reg_ms", "ms"); ("alloc.interconnect_ms", "ms"); ("alloc.transfers", "count");
    ("ctrl.states", "count"); ("ctrl.qm_iterations", "count"); ("rtl.bind_ms", "ms");
    ("rtl.estimate_ms", "ms"); ("ctrl.synth_ms", "ms"); ("report.summary_ms", "ms");
    ("report.bus_alloc_ms", "ms"); ("sim.cosim_ms", "ms"); ("sched.asap_ms", "ms");
    ("sched.list_path_ms", "ms"); ("sched.list_mobility_ms", "ms"); ("sched.freedom_ms", "ms");
    ("sched.bb_ms", "ms"); ("sched.ilp_ms", "ms"); ("sched.trans_parallel_ms", "ms");
    ("sched.trans_serial_ms", "ms"); ("dse.schedule_misses", "count");
    ("dse.backend_misses", "count"); ("dse.backend_hits", "count");
    ("dse.backend_runs_per_point", "ratio"); ("dse.backend_ms", "ms"); ("explore.pareto_ms", "ms");
    ("serve.rtt_fresh_ms", "ms"); ("serve.rtt_hit_ms", "ms"); ("serve.rtt_disk_ms", "ms");
    ("serve.disk_hits", "count"); ("serve.disk_misses", "count"); ("dse.persist_hits", "count");
    ("analysis.lint_ms", "ms"); ("core.digest_ms", "ms"); ("util.disk_cache_store_ms", "ms");
    ("util.disk_cache_load_ms", "ms"); ("serve.codec_ms", "ms");
    ("gc.minor_mwords_per_op", "Mwords"); ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%"); ("trace.unaccounted_pct", "%");
    ("alloc.interconnect.growth", "exponent"); ("alloc.reg.growth", "exponent");
    ("ctrl.synth.growth", "exponent"); ("report.bus_alloc.growth", "exponent");
    ("sched.trans_parallel.growth", "exponent");
  ]

(* A run where nothing completed has no median; JSON has no NaN. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line (acc : Acc.t) (metrics : Acc.metric list) =
  let m =
    List.map
      (fun (name, v, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (acc.Acc.errors = []) acc.Acc.attempted acc.Acc.failed (String.concat ", " m)

let run_workload acc ~workload ~seed ~seconds ~trace ~hlsc ~workdir : Acc.metric list =
  let self_rss () = Stats.peak_rss_mb "self" in
  match (workload, trace) with
  | "synth-large", false ->
      Synth_large.run acc ~seed ~seconds;
      Acc.end_to_end acc ~peak_rss_mb:(self_rss ())
  | "synth-large", true -> Synth_large.run_traced acc ~seed ~seconds
  | "dse-sweep", false ->
      Dse_sweep.run acc ~seed ~seconds;
      Acc.end_to_end acc ~peak_rss_mb:(self_rss ())
  | "dse-sweep", true -> Dse_sweep.run_traced acc ~seed ~seconds
  | "serve-mixed", false ->
      let peak = Serve_mixed.run acc ~hlsc ~workdir ~seed ~seconds in
      Acc.end_to_end acc ~peak_rss_mb:peak
  | "serve-mixed", true -> Serve_mixed.run_traced acc ~hlsc ~workdir ~seed ~seconds
  | w, _ -> invalid_arg ("unknown workload " ^ w)

(* Order the traced metrics as [per_layer], filling the ones the
   workload does not carry with 0. *)
let complete carried =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> n = name) carried with
      | Some (_, v, _) -> (name, v, unit_)
      | None -> (name, 0., unit_))
    per_layer

let usage () =
  prerr_endline
    "usage: main.exe --workload (synth-large|dse-sweep|serve-mixed) --seed N --seconds S \
     --trace (0|1) --hlsc PATH --workdir DIR\n       main.exe --check --hlsc PATH --workdir DIR";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref false in
  let hlsc = ref "" and workdir = ref "" and check = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--hlsc" :: p :: rest -> hlsc := p; parse rest
    | "--workdir" :: d :: rest -> workdir := d; parse rest
    | "--check" :: rest -> check := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !hlsc = "" || !workdir = "" then usage ();
  if not (Sys.file_exists !workdir) then Unix.mkdir !workdir 0o755;
  let go ~workload ~seconds ~trace =
    let acc = Acc.create () in
    let metrics =
      Fun.protect ~finally:Serve_mixed.kill_all (fun () ->
          run_workload acc ~workload ~seed:!seed ~seconds ~trace ~hlsc:!hlsc ~workdir:!workdir)
    in
    let metrics = if trace then complete metrics else metrics in
    List.iter (fun e -> Printf.eprintf "CHECK FAILED: %s\n" e) (List.rev acc.Acc.errors);
    List.iter
      (fun (name, n) ->
        Printf.printf "%s: overran the %.1f s deadline %d times (counted failed)\n" name
          Dse_sweep.deadline_s n)
      (List.rev acc.Acc.overruns);
    List.iter print_endline (List.rev acc.Acc.notes);
    List.iter (fun (n, v, u) -> Printf.printf "%-30s %14.4f %s\n" n v u) metrics;
    (acc, metrics)
  in
  if !check then begin
    let ok =
      List.for_all
        (fun workload ->
          let acc, _ = go ~workload ~seconds:0. ~trace:false in
          Printf.printf "check %s: %d attempted, %d failed, %s\n%!" workload acc.Acc.attempted
            acc.Acc.failed (if acc.Acc.errors = [] then "all checks passed" else "CHECKS FAILED");
          acc.Acc.errors = [])
        workloads
    in
    exit (if ok then 0 else 1)
  end;
  if not (List.mem !workload workloads) then usage ();
  let acc, metrics = go ~workload:!workload ~seconds:!seconds ~trace:!trace in
  print_endline (result_line acc metrics);
  exit (if acc.Acc.errors = [] then 0 else 1)
