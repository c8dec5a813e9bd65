(* serve-mixed: one client on one connection to the real `hlsc serve
   --stdio --verify --workers 1 --jobs 1` binary, started on an empty
   cache directory. A round sends a fixed stream of 29 requests:

   - 20 fresh requests (14 synth, 3 three-point dse, 3 lint), which
     compute, lint and write the disk store;
   - 5 repeats of earlier requests, answered from the in-memory persist
     table;
   - then the daemon restarts on the same cache directory and 4 earlier
     requests are replayed, answered from disk.

   Sources are FIR-16 (plus 0 to 2 taps, drawn), FIR-20 and FIR-24, 4-,
   6- and 8-section cascades and the paper workloads; only the FIR-16,
   whose request sits away from the median and the tail, varies in size,
   so seeds move the designs but not the timing mix. The designs stay at
   or under 62 datapath registers, because the design lint behind
   --verify rejects larger ones: its one-hot register-enable microcode
   word overflows a 63-bit integer. A fixed table gives each fresh
   request its scheduler, unit count, pass pipeline and state encoding.
   Every round uses a new daemon and a new cache directory, so each
   round does the same work. *)

open Hls_core
module J = Hls_util.Json
module Proto = Hls_serve.Proto

type kind = Fresh | Hit | Disk

type request = {
  slot : int;  (** index of the fresh request this one repeats or is *)
  cmd : string;
  src : string;  (** source text *)
  points : Flow.options list;
  payload : string;
}

let schedulers =
  [
    ("asap", Flow.Asap);
    ("list", Flow.List_path);
    ("list-mobility", Flow.List_mobility);
    ("fds", Flow.Force_directed 0);
    ("freedom", Flow.Freedom);
    ("bb", Flow.Branch_bound);
    ("ilp", Flow.Ilp_exact);
    ("trans-par", Flow.Trans_parallel);
    ("trans-ser", Flow.Trans_serial);
  ]

let limits_of n = if n = 0 then Hls_sched.Limits.Serial else Hls_sched.Limits.Total n

(* One option point: scheduler, unit count (0 = serial), pass pipeline,
   state encoding, in the request vocabulary. One-hot encoding is left
   out: its controller synthesis grows exponentially with the state
   count (seconds at 11 states). *)
let point (sname, n, p, ename) =
  let options =
    {
      Flow.default_options with
      Flow.passes = Result.get_ok (Hls_transform.Passes.pipeline_of_string p);
      scheduler = List.assoc sname schedulers;
      limits = limits_of n;
      encoding =
        (if ename = "gray" then Hls_ctrl.Encoding.Gray else Hls_ctrl.Encoding.Binary);
    }
  in
  let json =
    J.Obj
      [
        ("passes", J.Str p); ("scheduler", J.Str sname); ("fus", J.of_int n);
        ("encoding", J.Str ename);
      ]
  in
  (options, json)

(* The fresh requests of a round, as (cmd, source, option points). The
   table is fixed, so every seed asks for the same mix of schedulers,
   limits, pipelines and encodings; the seed draws the kernels'
   coefficients and FIR lengths. Branch-and-bound stays off the paper's
   fir8 and biquad3, where it searches for seconds. The three-point dse
   request on the 6-section cascade is the one heaviest request, well
   clear of the next, so the 11th-largest round trip of a run is the
   middle of its samples. *)
let fresh_slots ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let fir n = (Gen.fir rng ~tag:"s" n).Gen.source in
  let casc k = (Gen.cascade rng ~tag:"s" k).Gen.source in
  let f16 = fir (16 + Random.State.int rng 3) in
  let f20 = fir 20 in
  let f24 = fir 24 in
  let c4 = casc 4 in
  let c6 = casc 6 in
  let c8 = casc 8 in
  let w = Workloads.find in
  [
    ("synth", f16, [ ("list", 2, "standard", "binary") ]);
    ("synth", f20, [ ("trans-par", 3, "standard", "gray") ]);
    ("synth", f24, [ ("fds", 2, "aggressive", "binary") ]);
    ("synth", c4, [ ("bb", 0, "standard", "gray") ]);
    ("synth", c6, [ ("asap", 4, "aggressive", "binary") ]);
    ("synth", c8, [ ("list-mobility", 2, "standard", "gray") ]);
    ("synth", w "diffeq", [ ("ilp", 2, "aggressive", "binary") ]);
    ("synth", w "sqrt", [ ("freedom", 3, "standard", "gray") ]);
    ("synth", w "gcd", [ ("trans-ser", 0, "aggressive", "binary") ]);
    ("synth", w "biquad3", [ ("list", 4, "aggressive", "gray") ]);
    ( "dse", f20,
      [
        ("asap", 0, "standard", "binary"); ("list", 2, "aggressive", "gray");
        ("trans-ser", 4, "standard", "binary");
      ] );
    ( "dse", c6,
      [
        ("freedom", 2, "standard", "gray"); ("list-mobility", 3, "aggressive", "binary");
        ("trans-par", 2, "standard", "binary");
      ] );
    ( "dse", w "twophase",
      [
        ("bb", 2, "standard", "binary"); ("ilp", 3, "aggressive", "gray");
        ("list", 0, "standard", "gray");
      ] );
    ("lint", f24, [ ("list", 2, "standard", "binary") ]);
    ("lint", c4, [ ("trans-par", 4, "aggressive", "gray") ]);
    ("lint", w "fir8", [ ("list-mobility", 2, "standard", "binary") ]);
    ("synth", w "biquad3", [ ("list", 3, "aggressive", "gray") ]);
    ("synth", w "biquad3", [ ("list", 2, "aggressive", "gray") ]);
    ("synth", w "biquad3", [ ("list-mobility", 2, "aggressive", "gray") ]);
    ("synth", w "biquad3", [ ("asap", 3, "aggressive", "gray") ]);
  ]

(* Requests before the restart (fresh, with five repeats mixed in) and
   the replays after it: 29 a round. The five requests in the middle by
   cost (four small synth requests and the repeated FIR-24 lint) cost
   about the same, so the median of a run falls inside their samples
   rather than between two requests' of different cost. *)
let stream ~seed =
  let fresh =
    List.mapi
      (fun slot (cmd, src, pts) ->
        let pts = List.map point pts in
        let body =
          match (cmd, pts) with
          | "dse", _ -> [ ("points", J.Arr (List.map snd pts)) ]
          | _, [ (_, j) ] -> [ ("options", j) ]
          | _ -> invalid_arg "stream"
        in
        let payload = J.to_string (J.Obj (("cmd", J.Str cmd) :: ("source", J.Str src) :: body)) in
        { slot; cmd; src; points = List.map fst pts; payload })
      (fresh_slots ~seed)
    |> Array.of_list
  in
  let part a b = List.init (b - a) (fun i -> (Fresh, fresh.(a + i))) in
  let hit i = (Hit, fresh.(i)) and disk i = (Disk, fresh.(i)) in
  ( part 0 8 @ [ hit 2 ] @ part 8 12 @ [ hit 7 ] @ part 12 20 @ [ hit 13; hit 11; hit 4 ],
    [ disk 0; disk 5; disk 6; disk 10 ] )

(* ---- the daemon ---- *)

type daemon = { pid : int; to_d : Unix.file_descr; from_d : Unix.file_descr }

(* Daemons not yet stopped, so an aborted run can still end them. *)
let live : daemon list ref = ref []

let spawn ~hlsc ~cache_dir ~stderr_to ~gc_stats =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_to [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let env = Unix.environment () in
  let env = if gc_stats then Array.append [| "OCAMLRUNPARAM=v=0x400" |] env else env in
  let pid =
    Unix.create_process_env hlsc
      [|
        hlsc; "serve"; "--stdio"; "--verify"; "--cache-dir"; cache_dir; "--workers"; "1";
        "--jobs"; "1";
      |]
      env in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  let d = { pid; to_d = in_w; from_d = out_r } in
  live := d :: !live;
  d

let exchange d payload =
  Proto.write_frame d.to_d payload;
  match Proto.read_frame d.from_d with
  | Some (Ok reply) -> reply
  | Some (Error e) -> failwith ("serve: torn reply: " ^ e)
  | None -> failwith "serve: daemon closed the connection"

let parse reply =
  match J.parse reply with Ok j -> j | Error e -> failwith ("serve: bad reply: " ^ e)

(* Close the connection; the daemon exits at end of stream. *)
let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  Unix.close d.to_d;
  Unix.close d.from_d;
  ignore (Unix.waitpid [] d.pid)

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try stop d with Unix.Unix_error _ -> ())
    !live

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- checks ---- *)

type expected = {
  designs : (string * Flow.options, Flow.design) Hashtbl.t;  (** in-process runs by point *)
  firsts : (int, string) Hashtbl.t;  (** identity of each slot's first answer *)
}

let expected () = { designs = Hashtbl.create 64; firsts = Hashtbl.create 32 }

(* The point run in process through Flow.run, once per run. *)
let in_process ex src options =
  match Hashtbl.find_opt ex.designs (src, options) with
  | Some d -> d
  | None ->
      let tprog = (Flow.frontend src).Flow.c_prog in
      let d =
        match Flow.run ~verify:true options tprog with
        | Ok d -> d
        | Error ds ->
            failwith
              (Printf.sprintf "in-process run of %s failed verification: %s"
                 (Hls_util.Json.to_string (Proto.options_to_json options))
                 (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)))
      in
      Hashtbl.add ex.designs (src, options) d;
      d

let summaries (r : request) json =
  match r.cmd with
  | "synth" -> Option.to_list (J.member "design" json)
  | "dse" -> Option.value ~default:[] (Option.bind (J.member "points" json) J.to_list)
  | _ -> []

(* Every answer is ok; a lint answer reports no errors; each design's
   area and latency match the in-process run of its point; the hash (or,
   for lint, the whole diagnostic list) of every answer to a slot equals
   the first answer's, in this round and every earlier one. *)
let check ex (r : request) reply =
  let ( let* ) = Result.bind in
  let what = Printf.sprintf "request %d (%s)" r.slot r.cmd in
  let json = parse reply in
  let* () =
    if J.str_member "status" json = Some "ok" then Ok ()
    else Error (Printf.sprintf "%s: answer %s" what reply)
  in
  let* identity =
    match r.cmd with
    | "lint" ->
        if J.bool_member "errors" json = Some false then
          Ok (J.to_string (Option.value ~default:J.Null (J.member "diagnostics" json)))
        else Error (what ^ ": lint reported errors")
    | _ ->
        let ds = summaries r json in
        if List.length ds <> List.length r.points then Error (what ^ ": wrong number of designs")
        else
          let* () =
            List.fold_left2
              (fun acc d o ->
                let* () = acc in
                let e = (in_process ex r.src o).Flow.estimate in
                Check.same_estimate ~what
                  ~expected:(e.Hls_rtl.Estimate.total_area, e.Hls_rtl.Estimate.latency_ns)
                  ~got:
                    ( Option.value ~default:(-1) (J.int_member "area" d),
                      Option.value ~default:nan
                        (Option.bind (J.member "latency_ns" d) J.to_float) ))
              (Ok ()) ds r.points
          in
          let hash d = Option.value ~default:"" (J.str_member "design_hash" d) in
          Ok (String.concat "," (List.map hash ds))
  in
  match Hashtbl.find_opt ex.firsts r.slot with
  | None ->
      Hashtbl.add ex.firsts r.slot identity;
      Ok ()
  | Some first -> Check.same_hash ~what ~first ~got:identity

(* ---- runs ---- *)

type round_out = { rtts : (kind * float) list; stats : (string * int) list }

let record_designs acc ex (r : request) =
  if r.cmd <> "lint" then
    List.iter
      (fun o ->
        let e = (in_process ex r.src o).Flow.estimate in
        Acc.design acc ~area:e.Hls_rtl.Estimate.total_area
          ~latency_ns:e.Hls_rtl.Estimate.latency_ns)
      r.points

let counters json =
  List.concat_map
    (fun section ->
      match J.member section json with
      | Some (J.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v)) kvs
      | _ -> [])
    [ "serve"; "dse" ]

(* One round. [probe] runs after each answer, outside its timing;
   [restarted] when the daemon has been restarted. *)
let round ?(probe = fun _ _ -> ()) ?(restarted = ignore) acc ex ~hlsc ~workdir ~seed ~round:rnd
    ~gc_stats ~peak =
  let t0 = Stats.now () in
  let before, replays = stream ~seed in
  let cache_dir = Filename.concat workdir (Printf.sprintf "cache-%d" rnd) in
  remove_tree cache_dir;
  Unix.mkdir cache_dir 0o755;
  let stderr_to i = Filename.concat workdir (Printf.sprintf "daemon-%d-%d.err" rnd i) in
  let start i =
    let d = spawn ~hlsc ~cache_dir ~stderr_to:(stderr_to i) ~gc_stats in
    ignore (exchange d {|{"cmd":"ping"}|});
    d
  in
  let d = start 0 in
  acc.Acc.setup_s <- (Stats.now () -. t0) :: acc.Acc.setup_s;
  let rtts = ref [] and stats = ref [] in
  let send d (kind, r) =
    let reply, dt = Stats.time (fun () -> exchange d r.payload) in
    let verdict = check ex r reply in
    Acc.op acc ~dt ~ok:(Result.is_ok verdict);
    Acc.check acc verdict;
    record_designs acc ex r;
    rtts := (kind, dt) :: !rtts;
    probe kind r
  in
  let finish d i =
    stats := counters (parse (exchange d {|{"cmd":"stats"}|})) @ !stats;
    peak := Float.max !peak (Stats.peak_rss_mb (string_of_int d.pid));
    stop d;
    if not gc_stats then Sys.remove (stderr_to i)
  in
  List.iter (send d) before;
  finish d 0;
  let d = start 1 in
  restarted ();
  List.iter (send d) replays;
  finish d 1;
  remove_tree cache_dir;
  { rtts = !rtts; stats = !stats }

(* A round takes about 0.1 s. Rounds start once a second, so a run
   spreads its requests over the whole run length (and over the
   machine's slow and fast spells) while keeping 20 rounds in a
   20-second run: few enough that the 11th-largest round
   trip stays inside the heaviest request's samples. *)
let round_s = 1.0

(* Wait until round [r] of a run started at [start] is due. *)
let pace ~start r =
  let due = start +. (float_of_int r *. round_s) in
  let now = Stats.now () in
  if due > now then Unix.sleepf (due -. now)

let run acc ~hlsc ~workdir ~seed ~seconds =
  let ex = expected () in
  let peak = ref 0. in
  let start = Stats.now () in
  let r = ref 0 in
  while !r < Acc.rounds ~seconds ~round_s && Stats.now () -. start < Acc.valve_s do
    pace ~start !r;
    ignore (round acc ex ~hlsc ~workdir ~seed ~round:!r ~gc_stats:false ~peak);
    incr r
  done;
  !peak

(* GC figures the daemon prints at exit under OCAMLRUNPARAM=v=0x400. *)
let gc_at_exit path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
        match String.split_on_char ':' line with
        | [ k; v ] -> (
            match float_of_string_opt (String.trim v) with
            | Some x -> go ((String.trim k, x) :: acc)
            | None -> go acc)
        | _ -> go acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let run_traced acc ~hlsc ~workdir ~seed ~seconds : Acc.metric list =
  let ex = expected () in
  let peak = ref 0. in
  let layers = Acc.layers () and calls = Hashtbl.create 8 in
  let probe_dir = Filename.concat workdir "probe" in
  let mirror_dir = Filename.concat workdir "mirror" in
  let timed name f =
    Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name));
    Acc.timed layers name f
  in
  (* the daemon's work for one answer, repeated in this process: the
     request handled by an in-process server with the daemon's
     configuration (restarted with the daemon, on its own cache
     directory), then each answered design's lint, digest, store or
     load, and codec on their own *)
  let mirror = ref None in
  let mirror_server () =
    match !mirror with
    | Some s -> s
    | None ->
        let s =
          Hls_serve.Server.create
            ~config:
              {
                Hls_serve.Server.default_config with
                workers = 1;
                jobs = 1;
                verify = true;
                cache_dir = Some mirror_dir;
              }
            ()
        in
        mirror := Some s;
        s
  in
  let probe kind (r : request) =
    Acc.timed layers "serve.handle" (fun () ->
        ignore (Hls_serve.Server.handle_text (mirror_server ()) r.payload));
    List.iter
      (fun o ->
        let d = in_process ex r.src o in
        let key = Dse.design_digest d in
        (match kind with
        | Fresh ->
            ignore (timed "analysis.lint" (fun () -> Flow.lint d));
            ignore
              (timed "util.disk_cache_store" (fun () ->
                   Hls_util.Disk_cache.store ~dir:probe_dir ~key (Marshal.to_string d [])))
        | Disk ->
            ignore
              (timed "util.disk_cache_load" (fun () ->
                   Option.map
                     (fun s -> (Marshal.from_string s 0 : Flow.design))
                     (Hls_util.Disk_cache.load ~dir:probe_dir ~key)))
        | Hit -> ());
        ignore (timed "core.digest" (fun () -> Dse.design_digest d));
        ignore
          (timed "serve.codec" (fun () ->
               ignore (Result.map Proto.request_of_json (J.parse r.payload));
               J.to_string (Proto.design_summary d))))
      r.points
  in
  let untraced = ref [] and traced = ref [] in
  let by_kind = Hashtbl.create 3 and stats = ref [] in
  let minor = ref 0. and majors = ref 0. and ops = ref 0 in
  let start = Stats.now () in
  let rounds = max 1 (Acc.rounds ~seconds ~round_s / 2) in
  let r = ref 0 in
  while !r < rounds && Stats.now () -. start < Acc.valve_s do
    pace ~start (2 * !r);
    let plain = round acc ex ~hlsc ~workdir ~seed ~round:(2 * !r) ~gc_stats:false ~peak in
    let t =
      round ~probe ~restarted:(fun () -> mirror := None) acc ex ~hlsc ~workdir ~seed
        ~round:((2 * !r) + 1) ~gc_stats:true ~peak
    in
    mirror := None;
    remove_tree mirror_dir;
    remove_tree probe_dir;
    untraced := List.map snd plain.rtts @ !untraced;
    traced := List.map snd t.rtts @ !traced;
    List.iter
      (fun (k, dt) ->
        Hashtbl.replace by_kind k (dt :: Option.value ~default:[] (Hashtbl.find_opt by_kind k)))
      plain.rtts;
    stats := plain.stats @ !stats;
    ops := !ops + List.length t.rtts;
    List.iter
      (fun i ->
        let path = Filename.concat workdir (Printf.sprintf "daemon-%d-%d.err" ((2 * !r) + 1) i) in
        let gc = gc_at_exit path in
        Sys.remove path;
        minor := !minor +. Option.value ~default:0. (List.assoc_opt "minor_words" gc);
        majors := !majors +. Option.value ~default:0. (List.assoc_opt "major_collections" gc))
      [ 0; 1 ];
    incr r
  done;
  let rtt k = Stats.median (Option.value ~default:[] (Hashtbl.find_opt by_kind k)) *. 1000. in
  let per_call name =
    let n = max 1 (Option.value ~default:0 (Hashtbl.find_opt calls name)) in
    Acc.get layers name *. 1000. /. float_of_int n
  in
  let stat name =
    let total = List.fold_left (fun a (k, v) -> if k = name then a + v else a) 0 !stats in
    float_of_int total /. float_of_int rounds
  in
  let n = float_of_int !ops in
  let traced_total = List.fold_left ( +. ) 0. !traced in
  [
    ("serve.rtt_fresh_ms", rtt Fresh, "ms");
    ("serve.rtt_hit_ms", rtt Hit, "ms");
    ("serve.rtt_disk_ms", rtt Disk, "ms");
    ("serve.disk_hits", stat "serve/disk_hits", "count");
    ("serve.disk_misses", stat "serve/disk_misses", "count");
    ("dse.persist_hits", stat "dse/persist.hits", "count");
    ("analysis.lint_ms", per_call "analysis.lint", "ms");
    ("core.digest_ms", per_call "core.digest", "ms");
    ("util.disk_cache_store_ms", per_call "util.disk_cache_store", "ms");
    ("util.disk_cache_load_ms", per_call "util.disk_cache_load", "ms");
    ("serve.codec_ms", per_call "serve.codec", "ms");
    ("gc.minor_mwords_per_op", !minor /. n /. 1e6, "Mwords");
    ("gc.major_collections_per_op", !majors /. n, "count");
    ( "trace.overhead_pct",
      100. *. ((Stats.median !traced /. Stats.median !untraced) -. 1.),
      "%" );
    ("trace.unaccounted_pct", 100. *. (1. -. (Acc.get layers "serve.handle" /. traced_total)), "%");
  ]
