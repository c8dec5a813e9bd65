(* Order statistics, fits and process readings for the benchmark. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest of n samples, i.e. percentile 100*(n-10)/n. Below
   21 samples that falls under the median, and the median is reported.
   Returns (value, percentile). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 21 then (median xs, 50.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Growth exponent of a layer over a size ladder: the least-squares slope
   of log time on log size, pooled over several families of kernels.
   Each family keeps its own intercept; the slope is fitted to the
   within-family deviations. *)
let growth families =
  let centred =
    List.concat_map
      (fun pts ->
        let pts = List.map (fun (n, t) -> (log n, log (Float.max t 1e-6))) pts in
        let k = float_of_int (List.length pts) in
        let mx = List.fold_left (fun a (x, _) -> a +. x) 0. pts /. k
        and my = List.fold_left (fun a (_, y) -> a +. y) 0. pts /. k in
        List.map (fun (x, y) -> (x -. mx, y -. my)) pts)
      families
  in
  let num = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. centred
  and den = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. centred in
  if den = 0. then nan else num /. den
