(* dse-sweep: what `hlsc dse SRC --all` does at -j 1. One operation
   creates a fresh Dse engine, sweeps the 8 default schedulers x 5
   default limits (40 points), then takes Explore.pareto and renders
   Explore.table.

   A round is sixteen sources: the six paper workloads, then seeded
   FIR-4, FIR-7, FIR-8, FIR-16, FIR-32, FIR-40, FIR-64 (the last three
   plus 0 or 1 taps, drawn) and 3-, 4- and 8-section cascades. Fifteen
   of them succeed, an odd count, so the median of a run falls inside
   one source's samples rather than between two. FIR-7 and
   FIR-8 (13 and 15 operations) are exact-search sizes where
   branch-and-bound runs long; FIR-64 (127 operations) is where the
   transformational schedulers dominate. Two-section cascades (18
   operations) are left out: how long branch-and-bound searches them
   depends on the coefficient draw, past two minutes for some.

   Every operation runs under a deadline; one that overruns it counts as
   failed. The paper's biquad3 (24 operations, exactly branch-and-bound's
   node cap) overruns it every time: Branch_bound.schedule_dep bounds a
   partial schedule only by its current length plus the remaining
   critical path, with no per-class resource bound, so under the serial
   and split limits it enumerates orderings for tens of seconds. The
   deadline is about four times the slowest successful sweep (FIR-64,
   0.4 s on the reference machine). *)

open Hls_core

let deadline_s = 1.5
let round_s = 2.5

exception Deadline

(* The handler raises only while an operation is armed, so an alarm
   landing just after one finishes cannot escape. *)
let armed = ref false
let () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Deadline))

let alarm s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = s })

(* Run [f] under the deadline; [None] if it overran. *)
let with_deadline f =
  armed := true;
  alarm deadline_s;
  let r = try Some (f ()) with Deadline -> None in
  armed := false;
  alarm 0.;
  r

type subject = {
  name : string;
  source : string;
  reference : (string * int) list -> (string * int) list;
  vectors : (string * int) list list;
}

let of_kernel rng (k : Gen.kernel) =
  {
    name = k.Gen.name;
    source = k.Gen.source;
    reference = k.Gen.reference;
    vectors = Gen.vectors rng k 2;
  }

let subjects ~seed ~round =
  let rng = Random.State.make [| 0xd5e; seed; round |] in
  let tag = Printf.sprintf "r%d" round in
  let paper =
    List.map
      (fun (name, reference, gen) ->
        { name; source = Workloads.find name; reference; vectors = [ gen rng; gen rng ] })
      Gen.paper
  in
  let jit n = n + Random.State.int rng 2 in
  let firs = List.map (fun n -> Gen.fir rng ~tag n) [ 4; 7; 8; 16; jit 32; jit 40; jit 64 ] in
  let cascs = List.map (fun k -> Gen.cascade rng ~tag k) [ 3; 4; 8 ] in
  paper @ List.map (of_kernel rng) (firs @ cascs)

type outcome = {
  engine : Dse.t;
  points : Explore.point list;
  front : Explore.point list;
  table : string;
}

let operation ?(layers = Acc.layers ()) s =
  let t name f = Acc.timed layers name f in
  let engine = Dse.create s.source in
  let points = t "explore.sweep" (fun () -> Explore.sweep ~engine s.source) in
  let front = t "explore.pareto" (fun () -> Explore.pareto points) in
  let table = t "explore.table" (fun () -> Explore.table points) in
  { engine; points; front; table }

let steps (p : Explore.point) bid =
  Hls_sched.Schedule.n_steps
    (Hls_sched.Cfg_sched.block_schedule p.Explore.design.Flow.sched bid)

(* The reported frontier (table stars and Explore.pareto alike) is the
   non-dominated set of all points; the exact schedulers are never
   longer than list scheduling at the same limits, block by block; every
   frontier design computes the reference model's outputs. *)
let check s o =
  let ( let* ) = Result.bind in
  let what = s.name in
  let* () =
    if List.length o.points = 40 then Ok ()
    else Error (Printf.sprintf "%s: %d points, expected 40" what (List.length o.points))
  in
  let values =
    List.map
      (fun (p : Explore.point) -> (p.Explore.label, (p.Explore.area, p.Explore.latency_ns)))
      o.points
  in
  let* () =
    Check.frontier ~what:(what ^ " table") ~points:values
      ~reported:(Check.starred_rows o.table)
  in
  let* () =
    Check.frontier ~what:(what ^ " pareto") ~points:values
      ~reported:(List.map (fun (p : Explore.point) -> p.Explore.label) o.front)
  in
  let find sched limits =
    List.find
      (fun (p : Explore.point) ->
        p.Explore.options.Flow.scheduler = sched && p.Explore.options.Flow.limits = limits)
      o.points
  in
  let* () =
    List.fold_left
      (fun acc limits ->
        let* () = acc in
        let list = find Flow.List_path limits in
        let bids = Hls_cdfg.Cfg.block_ids list.Explore.design.Flow.cfg in
        List.fold_left
          (fun acc exact ->
            let* () = acc in
            let e = find exact limits in
            Check.exact_not_longer ~what:e.Explore.label
              (List.map (fun b -> (b, steps e b, steps list b)) bids))
          (Ok ()) [ Flow.Branch_bound; Flow.Ilp_exact ])
      (Ok ()) Explore.default_limits
  in
  List.fold_left
    (fun acc (p : Explore.point) ->
      let* () = acc in
      let img = Hls_sim.Rtl_sim.compile p.Explore.design.Flow.datapath in
      List.fold_left
        (fun acc v ->
          let* () = acc in
          let r = Hls_sim.Rtl_sim.run_image img ~inputs:v in
          Check.outputs ~what:(what ^ " " ^ p.Explore.label) ~expected:(s.reference v)
            ~finals:r.Hls_sim.Rtl_sim.finals)
        (Ok ()) s.vectors)
    (Ok ()) o.front

(* Run one operation under the deadline and record it. *)
let attempt acc ?layers s =
  Acc.quiesce ();
  let res, dt = Stats.time (fun () -> with_deadline (fun () -> operation ?layers s)) in
  match res with
  | None ->
      Acc.op acc ~dt ~ok:false;
      Acc.overran acc s.name;
      None
  | Some o ->
      Acc.op acc ~dt ~ok:true;
      List.iter
        (fun (p : Explore.point) ->
          Acc.design acc ~area:p.Explore.area ~latency_ns:p.Explore.latency_ns)
        o.points;
      Acc.check acc (check s o);
      Some (o, dt)

let run acc ~seed ~seconds =
  let start = Stats.now () in
  let r = ref 0 in
  while !r < Acc.rounds ~seconds ~round_s && Stats.now () -. start < Acc.valve_s do
    let ss = Acc.setup acc (fun () -> subjects ~seed ~round:!r) in
    List.iter (fun s -> ignore (attempt acc s)) ss;
    incr r
  done

let sched_key = function
  | "asap" -> Some "asap"
  | "list/path" -> Some "list_path"
  | "list/mobility" -> Some "list_mobility"
  | "freedom" -> Some "freedom"
  | "branch-and-bound" -> Some "bb"
  | "0/1-programming" -> Some "ilp"
  | "transformational/parallel" -> Some "trans_parallel"
  | "transformational/serial" -> Some "trans_serial"
  | _ -> None

let schedulers =
  [
    "asap"; "list_path"; "list_mobility"; "freedom"; "bb"; "ilp"; "trans_parallel";
    "trans_serial";
  ]

(* Fold the program's own stage spans of one traced sweep into [layers]. *)
let read_spans layers =
  List.iter
    (fun (sp : Hls_obs.Trace.span) ->
      match sp.Hls_obs.Trace.sp_name with
      | "frontend" -> Acc.add layers "lang.frontend" sp.sp_dur
      | "midend" -> Acc.add layers "transform.midend" sp.sp_dur
      | "schedule" -> (
          match Option.bind (List.assoc_opt "scheduler" sp.sp_args) sched_key with
          | Some k -> Acc.add layers ("sched." ^ k) sp.sp_dur
          | None -> Acc.add layers "sched.other" sp.sp_dur)
      | "allocate" | "bind" | "control" | "estimate" ->
          Acc.add layers "dse.backend" sp.sp_dur
      | _ -> ())
    (Hls_obs.Trace.spans ())

(* Layers whose spans tile a sweep: their sum over the sweep's wall time
   is the share the trace accounts for. *)
let covering =
  [
    "lang.frontend"; "transform.midend"; "sched.other"; "dse.backend"; "explore.pareto";
    "explore.table";
  ]
  @ List.map (fun k -> "sched." ^ k) schedulers

let run_traced acc ~seed ~seconds : Acc.metric list =
  let layers = Acc.layers () in
  let untraced = ref [] and traced = ref [] in
  let minor = ref 0. and majors = ref 0 in
  let sched_misses = ref 0 and backend_misses = ref 0 in
  let backend_hits = ref 0 and npoints = ref 0 in
  let start = Stats.now () in
  let rounds = max 1 (Acc.rounds ~seconds ~round_s / 2) in
  let r = ref 0 in
  while !r < rounds && Stats.now () -. start < Acc.valve_s do
    let ss = Acc.setup acc (fun () -> subjects ~seed ~round:!r) in
    List.iter
      (fun s ->
        let w0, c0 = Acc.gc_sample () in
        let plain = attempt acc s in
        let w1, c1 = Acc.gc_sample () in
        Hls_obs.Trace.reset ();
        Hls_obs.Trace.enable ~capacity:65536 ();
        let l = Acc.layers () in
        let traced_op = attempt acc ~layers:l s in
        Hls_obs.Trace.disable ();
        match (plain, traced_op) with
        | Some (_, dt), Some (o, dt') ->
            untraced := dt :: !untraced;
            traced := dt' :: !traced;
            minor := !minor +. (w1 -. w0);
            majors := !majors + (c1 - c0);
            read_spans layers;
            List.iter
              (fun k -> Acc.add layers k (Acc.get l k))
              [ "explore.sweep"; "explore.pareto"; "explore.table" ];
            let st = Dse.stats o.engine in
            sched_misses := !sched_misses + st.Dse.schedule.Dse.misses;
            backend_misses := !backend_misses + st.Dse.backend.Dse.misses;
            backend_hits := !backend_hits + st.Dse.backend.Dse.hits;
            npoints := !npoints + List.length o.points
        | _ -> ())
      ss;
    incr r
  done;
  let n = float_of_int (List.length !traced) in
  let per_op name = Acc.get layers name *. 1000. /. n in
  let covered = List.fold_left (fun a l -> a +. Acc.get layers l) 0. covering in
  let traced_total = List.fold_left ( +. ) 0. !traced in
  (* transformational/parallel over synth-large's size ladder: one
     Flow.schedule per size, the midend outside the timing *)
  let ladder =
    Synth_large.ladder ~seed
    |> List.map snd
    |> List.map
         (List.map (fun (k : Gen.kernel) ->
              let o =
                Flow.midend ~passes:Flow.default_options.Flow.passes ~if_conversion:false
                  (Flow.frontend k.Gen.source)
              in
              let options = { Flow.default_options with Flow.scheduler = Flow.Trans_parallel } in
              let _, dt = Stats.time (fun () -> Flow.schedule options o) in
              Acc.note acc "ladder %s: transformational/parallel %.1f ms" k.Gen.name (dt *. 1000.);
              (float_of_int k.Gen.ops, dt)))
  in
  List.map (fun k -> (Printf.sprintf "sched.%s_ms" k, per_op ("sched." ^ k), "ms")) schedulers
  @ [
      ("lang.frontend_ms", per_op "lang.frontend", "ms");
      ("transform.midend_ms", per_op "transform.midend", "ms");
      ("dse.schedule_misses", float_of_int !sched_misses /. n, "count");
      ("dse.backend_misses", float_of_int !backend_misses /. n, "count");
      ("dse.backend_hits", float_of_int !backend_hits /. n, "count");
      ( "dse.backend_runs_per_point",
        float_of_int !backend_misses /. float_of_int !npoints,
        "ratio" );
      ("dse.backend_ms", per_op "dse.backend", "ms");
      ("explore.pareto_ms", per_op "explore.pareto", "ms");
      ("gc.minor_mwords_per_op", !minor /. n /. 1e6, "Mwords");
      ("gc.major_collections_per_op", float_of_int !majors /. n, "count");
      ( "trace.overhead_pct",
        100. *. ((Stats.median !traced /. Stats.median !untraced) -. 1.),
        "%" );
      ("trace.unaccounted_pct", 100. *. (1. -. (covered /. traced_total)), "%");
      ("sched.trans_parallel.growth", Stats.growth ladder, "exponent");
    ]
