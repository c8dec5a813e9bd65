(* synth-large: what `hlsc synth FILE` does with default options, over
   seeded straight-line kernels big enough that allocation, controller
   synthesis and the report dominate.

   One operation: Flow.synthesize_result, then Report.summary, then the
   5-vector Flow.verify. A round is eleven distinct kernels: K-section
   cascades at K = 16, 18, 20, 22, 24 and FIR-N at N = 96, 106, 116
   (plus 0 to 2 taps, drawn) and three at 126. The sizes are fixed so
   that, at four or five rounds a run, the median falls inside the
   FIR-106 samples and the 11th-largest operation among the low samples
   of FIR-126, whatever the seed; the seed draws coefficients, vectors
   and the FIR-116 length. *)

open Hls_core

let round_s = 5.0

let kernels ~seed ~round =
  let rng = Random.State.make [| 0x5e; seed; round |] in
  let tag = Printf.sprintf "r%d" round in
  let sizes =
    [
      `C 16; `F 96; `C 18; `F 106; `C 20; `F (116 + Random.State.int rng 3); `C 22; `F 126;
      `C 24; `F 126; `F 126;
    ]
  in
  let make = function `F n -> Gen.fir rng ~tag n | `C k -> Gen.cascade rng ~tag k in
  let ks = List.map make sizes in
  (ks, List.map (fun k -> Gen.vectors rng k 3) ks)

let operation (k : Gen.kernel) =
  match Flow.synthesize_result k.Gen.source with
  | Error ds ->
      Error
        (Printf.sprintf "%s: %s" k.Gen.name
           (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)))
  | Ok d ->
      let report = Report.summary d in
      let cosim = Flow.verify ~runs:5 d in
      Ok (d, report, cosim)

(* The checks made on every design: co-simulation passed, the report
   names the design, the RTL computes the reference model's outputs on
   the benchmark's own vectors, and the schedule respects the operation
   and dependence bounds. *)
let check (k : Gen.kernel) vectors (d, report, cosim) =
  let ( let* ) = Result.bind in
  let* () = Result.map_error (fun e -> k.Gen.name ^ ": co-simulation: " ^ e) cosim in
  let* () =
    if String.length report > 0 && Check.contains report k.Gen.name then Ok ()
    else Error (k.Gen.name ^ ": report does not name the design")
  in
  let img = Hls_sim.Rtl_sim.compile d.Flow.datapath in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        let r = Hls_sim.Rtl_sim.run_image img ~inputs:v in
        Check.outputs ~what:k.Gen.name ~expected:(k.Gen.reference v)
          ~finals:r.Hls_sim.Rtl_sim.finals)
      (Ok ()) vectors
  in
  Check.schedule_bound ~what:k.Gen.name ~ops:k.Gen.ops ~crit:k.Gen.crit
    ~steps:(Hls_sched.Cfg_sched.compute_steps d.Flow.sched)

(* The same operation split into the public calls Flow makes, each timed
   into [layers]. Returns the design, which must be bit-identical to the
   untraced one. *)
let decomposed ?(report = true) layers (k : Gen.kernel) =
  let t name f = Acc.timed layers name f in
  let options = Flow.default_options in
  let c = t "lang.frontend" (fun () -> Flow.frontend k.Gen.source) in
  let o =
    t "transform.midend" (fun () ->
        Flow.midend ~passes:options.Flow.passes ~if_conversion:options.Flow.if_conversion c)
  in
  let sched = t "sched.list_path" (fun () -> Flow.schedule options o) in
  let prog = o.Flow.o_prog in
  let ports = Flow.ports_of prog in
  let fu = t "alloc.fu" (fun () -> Hls_alloc.Fu_alloc.greedy ~selection:`Min_mux sched) in
  let regs =
    t "alloc.reg" (fun () ->
        Hls_alloc.Reg_alloc.run ~share_variables:options.Flow.share_variables
          ~ports:(List.map (fun (n, _, _) -> n) ports)
          ~outputs:o.Flow.o_outputs sched)
  in
  let transfers =
    t "alloc.interconnect" (fun () -> Hls_alloc.Interconnect.transfers sched ~fu ~regs)
  in
  let datapath =
    t "rtl.bind" (fun () ->
        let dp = Hls_rtl.Datapath.build sched ~fu ~regs ~ports in
        match Hls_rtl.Check.run dp with
        | Ok () -> dp
        | Error _ -> failwith (k.Gen.name ^ ": datapath check failed"))
  in
  let style = options.Flow.encoding in
  let controller =
    t "ctrl.synth" (fun () ->
        Hls_ctrl.Ctrl_synth.synthesize ~style datapath.Hls_rtl.Datapath.fsm)
  in
  let estimate =
    t "rtl.estimate" (fun () ->
        Hls_rtl.Estimate.estimate ~style ~ctrl:controller datapath sched)
  in
  let d =
    {
      Flow.options;
      prog;
      cfg = o.Flow.o_cfg;
      sched;
      fu;
      regs;
      transfers;
      datapath;
      controller;
      estimate;
    }
  in
  let report = if report then t "report.summary" (fun () -> Report.summary d) else "" in
  let cosim = t "sim.cosim" (fun () -> Flow.verify ~runs:5 d) in
  (d, report, cosim)

(* Layers timed inside a decomposed operation: their sum is the part of
   the operation the trace accounts for. *)
let op_layers =
  [
    "lang.frontend"; "transform.midend"; "sched.list_path"; "alloc.fu"; "alloc.reg";
    "alloc.interconnect"; "rtl.bind"; "ctrl.synth"; "rtl.estimate"; "report.summary"; "sim.cosim";
  ]

let run acc ~seed ~seconds =
  let start = Stats.now () in
  let r = ref 0 in
  while !r < Acc.rounds ~seconds ~round_s && Stats.now () -. start < Acc.valve_s do
    let ks, vs = Acc.setup acc (fun () -> kernels ~seed ~round:!r) in
    List.iter2
      (fun k v ->
        Acc.quiesce ();
        let res, dt = Stats.time (fun () -> operation k) in
        match res with
        | Error e ->
            Acc.op acc ~dt ~ok:false;
            Acc.check acc (Error e)
        | Ok ((d, _, _) as out) ->
            Acc.op acc ~dt ~ok:true;
            let e = d.Flow.estimate in
            Acc.design acc ~area:e.Hls_rtl.Estimate.total_area
              ~latency_ns:e.Hls_rtl.Estimate.latency_ns;
            Acc.check acc (check k v out))
      ks vs;
    incr r
  done

(* Sizes of the traced run's ladder, as (family, kernels). *)
let ladder ~seed =
  let rng = Random.State.make [| 0x1add; seed |] in
  [
    ("fir", List.map (fun n -> Gen.fir rng ~tag:"ladder" n) [ 32; 64; 128; 256 ]);
    ("casc", List.map (fun k -> Gen.cascade rng ~tag:"ladder" k) [ 6; 12; 24; 48 ]);
  ]

let grown = [ "alloc.interconnect"; "alloc.reg"; "ctrl.synth"; "report.bus_alloc" ]

let run_traced acc ~seed ~seconds : Acc.metric list =
  let layers = Acc.layers () in
  let untraced = ref [] and traced = ref [] in
  let minor = ref 0. and majors = ref 0 in
  let transfers = ref 0 and states = ref 0 and qm = ref 0 in
  let start = Stats.now () in
  let rounds = max 1 (Acc.rounds ~seconds ~round_s / 2) in
  let r = ref 0 in
  while !r < rounds && Stats.now () -. start < Acc.valve_s do
    let ks, vs = Acc.setup acc (fun () -> kernels ~seed ~round:!r) in
    List.iter2
      (fun k v ->
        Acc.quiesce ();
        let w0, c0 = Acc.gc_sample () in
        let res, dt = Stats.time (fun () -> operation k) in
        let w1, c1 = Acc.gc_sample () in
        Acc.op acc ~dt ~ok:(Result.is_ok res);
        match res with
        | Error e ->
            (* its traced twin counts as failed too, so the failed share
               matches the untraced run's *)
            Acc.check acc (Error e);
            Acc.op acc ~dt:0. ~ok:false
        | Ok ((d0, _, _) as out) ->
            untraced := dt :: !untraced;
            minor := !minor +. (w1 -. w0);
            majors := !majors + (c1 - c0);
            Acc.check acc (check k v out);
            Acc.quiesce ();
            Hls_obs.Trace.reset ();
            Hls_obs.Trace.enable ();
            let (d, rep, cos), dt' = Stats.time (fun () -> decomposed layers k) in
            Hls_obs.Trace.disable ();
            Acc.op acc ~dt:dt' ~ok:true;
            traced := dt' :: !traced;
            qm := !qm + Hls_obs.Trace.counter "ctrl/qm_iterations";
            transfers := !transfers + List.length d.Flow.transfers;
            states := !states + Hls_ctrl.Fsm.n_states d.Flow.datapath.Hls_rtl.Datapath.fsm;
            Acc.check acc (check k v (d, rep, cos));
            Acc.check acc
              (if Dse.design_digest d = Dse.design_digest d0 then Ok ()
               else Error (k.Gen.name ^ ": decomposed flow built a different design"));
            (* outside the operation: the bus allocation inside
               Report.summary, timed on its own *)
            Acc.timed layers "report.bus_alloc" (fun () ->
                ignore (Hls_alloc.Interconnect.bus_allocation d.Flow.transfers)))
      ks vs;
    incr r
  done;
  let n = float_of_int (List.length !traced) in
  let per_op name = Acc.get layers name *. 1000. /. n in
  let covered = List.fold_left (fun a l -> a +. Acc.get layers l) 0. op_layers in
  let traced_total = List.fold_left ( +. ) 0. !traced in
  (* the size ladder: one decomposed operation per size, with the bus
     allocation timed on its own instead of inside the report *)
  let fits =
    List.map
      (fun (family, ks) ->
        ( family,
          List.map
            (fun (k : Gen.kernel) ->
              let l = Acc.layers () in
              let d, _, _ = decomposed ~report:false l k in
              Acc.timed l "report.bus_alloc" (fun () ->
                  ignore (Hls_alloc.Interconnect.bus_allocation d.Flow.transfers));
              (float_of_int k.Gen.ops, l))
            ks ))
      (ladder ~seed)
  in
  let growth name =
    Stats.growth
      (List.map (fun (_, pts) -> List.map (fun (n, l) -> (n, Acc.get l name)) pts) fits)
  in
  List.iter
    (fun (family, pts) ->
      List.iter
        (fun (n, l) ->
          Acc.note acc "ladder %s ops=%.0f: %s" family n
            (String.concat ", "
               (List.map (fun g -> Printf.sprintf "%s %.1f ms" g (Acc.get l g *. 1000.)) grown)))
        pts)
    fits;
  List.map (fun l -> (l ^ "_ms", per_op l, "ms")) (op_layers @ [ "report.bus_alloc" ])
  @ [
      ("alloc.transfers", float_of_int !transfers /. n, "count");
      ("ctrl.states", float_of_int !states /. n, "count");
      ("ctrl.qm_iterations", float_of_int !qm /. n, "count");
      ("gc.minor_mwords_per_op", !minor /. n /. 1e6, "Mwords");
      ("gc.major_collections_per_op", float_of_int !majors /. n, "count");
      ( "trace.overhead_pct",
        100. *. ((Stats.median !traced /. Stats.median !untraced) -. 1.),
        "%" );
      ("trace.unaccounted_pct", 100. *. (1. -. (covered /. traced_total)), "%");
    ]
  @ List.map (fun g -> (g ^ ".growth", growth g, "exponent")) grown
