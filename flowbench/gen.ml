(* Seeded kernel sources and the benchmark's own reference models.

   Every generated kernel is straight-line fixed-point code over
   fix<8,24> (32-bit two's complement, 24 fraction bits). Coefficients
   are odd multiples of 2^-12 in (0, 1): exactly representable, printed
   as exact decimals, never a power of two (so no multiply strength-
   reduces to a shift) and drawn without replacement (so no two products
   share a coefficient and common-subexpression elimination finds
   nothing to merge). The reference models below re-implement the
   language's fixed-point semantics here, apart from the program:
   products are truncated by an arithmetic shift, every result wraps to
   32 bits. *)

let frac_bits = 24

(* Two's-complement wraparound to [bits] bits. *)
let wrap_to bits v =
  let t = v land ((1 lsl bits) - 1) in
  if t land (1 lsl (bits - 1)) <> 0 then t - (1 lsl bits) else t

let wrap = wrap_to 32

let fmul a b = wrap ((a * b) asr frac_bits)
let fadd a b = wrap (a + b)
let fsub a b = wrap (a - b)

type kernel = {
  name : string;
  source : string;
  inputs : string list;
  reference : (string * int) list -> (string * int) list;
      (** expected output-port patterns for an input assignment *)
  ops : int;  (** step-occupying operations the kernel needs *)
  crit : int;  (** lower bound on the dependence chain, in steps *)
}

(* A coefficient: odd k in [3, 4093], value k/4096. [pattern] is its
   fix<8,24> bit pattern, [literal] its exact decimal spelling. *)
type coeff = { pattern : int; literal : string }

let coeff_of k = { pattern = k lsl 12; literal = Printf.sprintf "0.%012d" (k * 244140625) }

(* [n] distinct coefficients. *)
let draw_coeffs rng n =
  let seen = Hashtbl.create n in
  let rec draw () =
    let k = 3 + (2 * Random.State.int rng 2046) in
    if Hashtbl.mem seen k then draw ()
    else begin
      Hashtbl.add seen k ();
      coeff_of k
    end
  in
  List.init n (fun _ -> draw ())

let ceil_log2 n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* FIR-N: y := c0*x0 + c1*x1 + ... ; 2N-1 operations, and no summation
   tree of N products is shallower than one multiply plus ceil(log2 N)
   additions. *)
let fir rng ~tag n =
  let cs = Array.of_list (draw_coeffs rng n) in
  let xs = List.init n (Printf.sprintf "x%d") in
  let name = Printf.sprintf "fir%d_%s" n tag in
  let terms =
    List.mapi (fun i x -> Printf.sprintf "%s * %s" cs.(i).literal x) xs
  in
  let source =
    Printf.sprintf "module %s(input %s: fix<8,24>; output y: fix<8,24>);\nbegin\n  y := %s;\nend\n"
      name (String.concat ", " xs)
      (String.concat "\n     + " terms)
  in
  let reference env =
    let y = ref 0 in
    List.iteri (fun i x -> y := fadd !y (fmul cs.(i).pattern (List.assoc x env))) xs;
    [ ("y", !y) ]
  in
  { name; source; inputs = xs; reference; ops = (2 * n) - 1; crit = 1 + ceil_log2 n }

(* Outputs of K cascaded sections with coefficient patterns
   [cs.(4i) .. cs.(4i+3)] = a1, a2, b1, b2 of section i+1. *)
let cascade_reference ~sep cs k env =
  let sin i j = Printf.sprintf "s%d%s%s_in" i sep j
  and sout i j = Printf.sprintf "s%d%s%s_out" i sep j in
  let inp = ref (List.assoc "x" env) in
  let outs = ref [] in
  for i = 1 to k do
    let c j = cs.((4 * (i - 1)) + j) in
    let s1 = List.assoc (sin i "1") env and s2 = List.assoc (sin i "2") env in
    let t = fsub (fsub !inp (fmul (c 0) s1)) (fmul (c 1) s2) in
    inp := fadd (fadd t (fmul (c 2) s1)) (fmul (c 3) s2);
    outs := (sout i "2", s1) :: (sout i "1", t) :: !outs
  done;
  ("y", !inp) :: List.rev !outs

(* K cascaded direct-form-II biquad sections, one procedure call per
   section (the same shape as the paper's biquad3):
     t = inp - a1*s1 - a2*s2;  outp = t + b1*s1 + b2*s2;
     s1_next = t;  s2_next = s1.
   Eight operations per section; the inp -> outp chain needs at least a
   subtract and an add per section. *)
let cascade rng ~tag k =
  let cs = Array.of_list (draw_coeffs rng (4 * k)) in
  let name = Printf.sprintf "casc%d_%s" k tag in
  let sin i j = Printf.sprintf "s%d_%d_in" i j and sout i j = Printf.sprintf "s%d_%d_out" i j in
  let secs = List.init k (fun i -> i + 1) in
  let inputs = "x" :: List.concat_map (fun i -> [ sin i 1; sin i 2 ]) secs in
  let outputs = "y" :: List.concat_map (fun i -> [ sout i 1; sout i 2 ]) secs in
  let wire i = if i = 0 then "x" else if i = k then "y" else Printf.sprintf "w%d" i in
  let calls =
    List.map
      (fun i ->
        let c j = cs.((4 * (i - 1)) + j).literal in
        Printf.sprintf "  call section(%s, %s, %s, %s, %s, %s, %s, %s, %s, %s);" (wire (i - 1))
          (sin i 1) (sin i 2) (c 0) (c 1) (c 2) (c 3) (wire i) (sout i 1) (sout i 2))
      secs
  in
  let locals =
    if k < 2 then ""
    else
      Printf.sprintf "var %s: fix<8,24>;\n"
        (String.concat ", " (List.init (k - 1) (fun i -> wire (i + 1))))
  in
  let source =
    String.concat ""
      [
        Printf.sprintf "module %s(input %s: fix<8,24>;\n    output %s: fix<8,24>);\n" name
          (String.concat ", " inputs) (String.concat ", " outputs);
        "proc section(input inp, s1, s2, a1, a2, b1, b2: fix<8,24>;\n";
        "             output outp, s1_next, s2_next: fix<8,24>);\n";
        "var t: fix<8,24>;\nbegin\n";
        "  t := inp - a1 * s1 - a2 * s2;\n  outp := t + b1 * s1 + b2 * s2;\n";
        "  s2_next := s1;\n  s1_next := t;\nend;\n";
        locals;
        "begin\n";
        String.concat "\n" calls;
        "\nend\n";
      ]
  in
  let reference = cascade_reference ~sep:"_" (Array.map (fun c -> c.pattern) cs) k in
  { name; source; inputs; reference; ops = 8 * k; crit = 2 * k }

(* An input pattern in [-1, 1). *)
let unit_pattern rng = Random.State.int rng (1 lsl 25) - (1 lsl 24)

let vectors rng (k : kernel) n =
  List.init n (fun _ -> List.map (fun x -> (x, unit_pattern rng)) k.inputs)

(* ---- reference models of the paper workloads ----------------------- *)

(* The built-in workloads' semantics, written out here so a frontier
   design of any dse-sweep source is checked against something other
   than the program's own interpreters. Constants follow the language:
   nearest fixed-point pattern of the decimal literal. *)

let const frac x = int_of_float (Float.round (x *. float_of_int (1 lsl frac)))

(* Each paper workload as (name, reference model, input draw). *)
let paper_fir8 =
  let cs = [ 0.0265; 0.1405; 0.2500; 0.3230; 0.3230; 0.2500; 0.1405; 0.0265 ] in
  let reference env =
    let y = ref 0 in
    List.iteri
      (fun i c -> y := fadd !y (fmul (const 24 c) (List.assoc (Printf.sprintf "x%d" i) env)))
      cs;
    [ ("y", !y) ]
  in
  let gen rng = List.init 8 (fun i -> (Printf.sprintf "x%d" i, unit_pattern rng)) in
  ("fir8", reference, gen)

let paper_biquad3 =
  let cs =
    Array.map (const 24)
      [| 0.5; 0.25; 0.8; 0.3; 0.4; 0.2; 0.7; 0.35; 0.3; 0.15; 0.6; 0.25 |]
  in
  let gen rng =
    ("x", unit_pattern rng)
    :: List.concat_map
         (fun i -> List.map (fun j -> (Printf.sprintf "s%d%d_in" i j, unit_pattern rng)) [ 1; 2 ])
         [ 1; 2; 3 ]
  in
  ("biquad3", cascade_reference ~sep:"" cs 3, gen)

let paper_gcd =
  let reference env =
    let a = ref (List.assoc "a_in" env) and b = ref (List.assoc "b_in" env) in
    while !a <> !b do
      if !a > !b then a := wrap_to 16 (!a - !b) else b := wrap_to 16 (!b - !a)
    done;
    [ ("g", !a) ]
  in
  (* positive operands keep Euclid's loop finite *)
  let gen rng =
    [ ("a_in", 1 + Random.State.int rng 200); ("b_in", 1 + Random.State.int rng 200) ]
  in
  ("gcd", reference, gen)

let paper_twophase =
  let reference env =
    let a = List.assoc "a" env and b = List.assoc "b" env in
    let s = ref a in
    for _ = 0 to 3 do s := wrap_to 16 (!s + b) done;
    let t = ref (wrap_to 16 (!s * 2)) in
    for _ = 0 to 3 do t := wrap_to 16 (!t - a) done;
    [ ("y", !t) ]
  in
  let gen rng =
    [ ("a", Random.State.int rng 2000 - 1000); ("b", Random.State.int rng 2000 - 1000) ]
  in
  ("twophase", reference, gen)

let paper_sqrt =
  let reference env =
    let x = List.assoc "x" env in
    let y = ref (fadd (const 24 0.222222) (fmul (const 24 0.888889) x)) in
    for _ = 0 to 3 do
      y := fmul (const 24 0.5) (fadd !y (wrap ((x lsl frac_bits) / !y)))
    done;
    [ ("y", !y) ]
  in
  (* x in [1/16, 1): the approximation's domain, where y stays positive *)
  let gen rng = [ ("x", (1 lsl 20) + Random.State.int rng ((1 lsl 24) - (1 lsl 20))) ] in
  ("sqrt", reference, gen)

let paper_diffeq =
  let f = 16 in
  let mul a b = wrap ((a * b) asr f) in
  let reference env =
    let g n = List.assoc n env in
    let x = ref (g "x_in") and y = ref (g "y_in") and u = ref (g "u_in") in
    let dx = g "dx" and a = g "a" and three = const f 3.0 in
    while !x < a do
      let x1 = wrap (!x + dx) in
      let u1 = wrap (wrap (!u - mul (mul (mul three !x) !u) dx) - mul (mul three !y) dx) in
      let y1 = wrap (!y + mul !u dx) in
      x := x1;
      u := u1;
      y := y1
    done;
    [ ("x_out", !x); ("y_out", !y); ("u_out", !u) ]
  in
  (* a few Euler steps of a small positive dx *)
  let gen rng =
    let one = 1 lsl f in
    [
      ("x_in", Random.State.int rng one);
      ("y_in", Random.State.int rng one);
      ("u_in", Random.State.int rng one);
      ("dx", (one / 16) + Random.State.int rng (one / 16));
      ("a", (2 * one) + Random.State.int rng one);
    ]
  in
  ("diffeq", reference, gen)

let paper = [ paper_sqrt; paper_diffeq; paper_fir8; paper_gcd; paper_biquad3; paper_twophase ]
