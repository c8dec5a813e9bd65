(* What a run records, and the end-to-end metrics computed from it. *)

type t = {
  mutable op_s : float list;  (** wall time of each completed operation *)
  mutable wall_s : float;  (** wall time of every operation, failed ones too *)
  mutable attempted : int;
  mutable failed : int;
  mutable setup_s : float list;  (** one sample per round *)
  mutable areas : float list;
  mutable lats : float list;
  mutable errors : string list;  (** failed correctness checks *)
  mutable notes : string list;  (** lines printed ahead of the result *)
  mutable overruns : (string * int) list;  (** operations past their deadline, by name *)
}

let create () =
  {
    op_s = [];
    wall_s = 0.;
    attempted = 0;
    failed = 0;
    setup_s = [];
    areas = [];
    lats = [];
    errors = [];
    notes = [];
    overruns = [];
  }

let op t ~dt ~ok =
  t.attempted <- t.attempted + 1;
  t.wall_s <- t.wall_s +. dt;
  if ok then t.op_s <- dt :: t.op_s else t.failed <- t.failed + 1

let design t ~area ~latency_ns =
  t.areas <- float_of_int area :: t.areas;
  t.lats <- latency_ns :: t.lats

(* Set-up of a round, repeated so each round gives several samples of
   the set-up time; returns the last result. *)
let setup t f =
  let r = ref None in
  for _ = 1 to 3 do
    let v, dt = Stats.time f in
    t.setup_s <- dt :: t.setup_s;
    r := Some v
  done;
  Option.get !r

(* Collect the heap before an in-process operation, outside its timing,
   so each one starts from its live data alone, as a fresh process
   would. *)
let quiesce () = Gc.full_major ()

let check t = function Ok () -> () | Error e -> t.errors <- e :: t.errors

let overran t name =
  let n = 1 + Option.value ~default:0 (List.assoc_opt name t.overruns) in
  t.overruns <- (name, n) :: List.remove_assoc name t.overruns

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

(* Rounds in a run: the fixed operation list repeated [rounds] times,
   sized from the run length by the workload's nominal round time. *)
let rounds ~seconds ~round_s = max 1 (int_of_float (Float.round (seconds /. round_s)))

(* Stop starting rounds past this much wall time, so a pathologically
   slow machine still ends the run in time. *)
let valve_s = 120.

type metric = string * float * string

let end_to_end t ~peak_rss_mb : metric list =
  let ms = List.map (fun s -> s *. 1000.) t.op_s in
  let tail, pct = Stats.tail ms in
  note t "op_ms_tail is p%.1f over %d completed operations" pct (List.length ms);
  [
    ("op_ms_p50", Stats.median ms, "ms");
    ("op_ms_tail", tail, "ms");
    ("ops_per_s", float_of_int (t.attempted - t.failed) /. t.wall_s, "1/s");
    ("peak_rss_mb", peak_rss_mb, "MB");
    ("setup_s", Stats.median t.setup_s, "s");
    ("area_gates_geomean", Stats.geomean t.areas, "gates");
    ("latency_ns_geomean", Stats.geomean t.lats, "ns");
  ]

(* Per-layer wall time, summed over traced operations. *)
type layers = (string, float) Hashtbl.t

let layers () : layers = Hashtbl.create 32

let add (l : layers) name dt =
  Hashtbl.replace l name (dt +. Option.value ~default:0. (Hashtbl.find_opt l name))

let get (l : layers) name = Option.value ~default:0. (Hashtbl.find_opt l name)

let timed (l : layers) name f =
  let r, dt = Stats.time f in
  add l name dt;
  r

(* Allocation of the calling domain, for per-operation GC figures. *)
let gc_sample () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)
