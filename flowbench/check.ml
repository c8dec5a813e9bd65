(* The benchmark's correctness checks. Each is a plain function of
   values the benchmark computed itself and values the program produced,
   returning [Error] with a message on a mismatch; the self-test feeds
   them perturbed inputs to show that they can fail. *)

let ( let* ) = Result.bind

(* Simulated output ports must equal the reference model's values. *)
let outputs ~what ~expected ~finals =
  List.fold_left
    (fun acc (port, want) ->
      let* () = acc in
      match List.assoc_opt port finals with
      | None -> Error (Printf.sprintf "%s: output port %s missing from the simulation" what port)
      | Some got when got = want -> Ok ()
      | Some got -> Error (Printf.sprintf "%s: port %s = %d, reference %d" what port got want))
    (Ok ()) expected

(* A straight-line kernel of [ops] operations on two units needs at least
   ceil(ops/2) steps, and never fewer than its dependence chain. *)
let schedule_bound ~what ~ops ~crit ~steps =
  let bound = max ((ops + 1) / 2) crit in
  if steps >= bound then Ok ()
  else Error (Printf.sprintf "%s: %d steps under 2 units, below the bound %d" what steps bound)

let dominates (a1, l1) (a2, l2) = a1 <= a2 && l1 <= l2 && (a1 < a2 || l1 < l2)

(* Labels of the points no other point dominates in (area, latency). *)
let non_dominated (points : (string * (int * float)) list) =
  List.filter_map
    (fun (label, v) ->
      if List.exists (fun (_, w) -> dominates w v) points then None else Some label)
    points

let frontier ~what ~points ~reported =
  let want = List.sort compare (non_dominated points) and got = List.sort compare reported in
  if want = got then Ok ()
  else
    Error
      (Printf.sprintf "%s: reported frontier {%s}, non-dominated set {%s}" what
         (String.concat "; " got) (String.concat "; " want))

(* An exact scheduler's block may not be longer than the list schedule
   it starts from. [lens] pairs (block, exact steps, list steps). *)
let exact_not_longer ~what lens =
  match List.find_opt (fun (_, exact, list) -> exact > list) lens with
  | None -> Ok ()
  | Some (bid, exact, list) ->
      Error (Printf.sprintf "%s: block %d takes %d steps, list scheduling %d" what bid exact list)

(* A cached answer must carry the design hash of the first answer. *)
let same_hash ~what ~first ~got =
  if first = got then Ok ()
  else Error (Printf.sprintf "%s: design_hash %s, first answer %s" what got first)

(* Area must match exactly, latency to rounding of its JSON rendering. *)
let same_estimate ~what ~expected:(a0, l0) ~got:(a, l) =
  if a = a0 && Float.abs (l -. l0) <= 1e-9 *. Float.max 1. (Float.abs l0) then Ok ()
  else Error (Printf.sprintf "%s: area %d latency %g, in process %d / %g" what a l a0 l0)

(* The starred rows of an Explore.table rendering. *)
let starred_rows table =
  match String.split_on_char '\n' table with
  | header :: _rule :: rows -> (
      let find sub =
        let n = String.length sub in
        let rec go i =
          if i + n > String.length header then None
          else if String.sub header i n = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      match (find "FUs", find "pareto") with
      | Some fus_at, Some star_at ->
          List.filter_map
            (fun row ->
              if String.length row > star_at && row.[star_at] = '*' then
                Some (String.trim (String.sub row 0 fus_at))
              else None)
            rows
      | _ -> [])
  | _ -> []

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0
