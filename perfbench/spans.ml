(* Per-domain span recorder for the traced run.

   Each domain owns one recorder, written only by that domain. Every
   instance call adds its duration to a per-(mode, kind) histogram,
   count and sum, so the layer statistics cover every call. The first
   [keep] spans of each mode are also stored field by field (kind, mode,
   domain, start, end, op id) in preallocated arrays and written out as
   Chrome trace JSON when the run ends. *)

let malloc = 0
let free = 1
let kind_name k = if k = malloc then "malloc" else "free"

(* Histogram buckets of [bucket_ns]; the last one collects overflow. *)
let buckets = 8192
let bucket_ns = 4

type t = {
  domain : int;
  keep : int;  (** stored spans per mode *)
  kinds : int array;
  modes : int array;
  starts : int array;
  stops : int array;
  ids : int array;
  mutable len : int;
  stored : int array;  (** per mode *)
  hist : int array array;  (** per (mode, kind) *)
  sum : int array;
  count : int array;
}

let create ~nmodes ~keep domain =
  let cap = nmodes * keep in
  {
    domain;
    keep;
    kinds = Array.make cap 0;
    modes = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    ids = Array.make cap 0;
    len = 0;
    stored = Array.make nmodes 0;
    hist = Array.init (2 * nmodes) (fun _ -> Array.make buckets 0);
    sum = Array.make (2 * nmodes) 0;
    count = Array.make (2 * nmodes) 0;
  }

let record r ~mode ~kind ~id t0 t1 =
  let k = (2 * mode) + kind and d = t1 - t0 in
  r.sum.(k) <- r.sum.(k) + d;
  r.count.(k) <- r.count.(k) + 1;
  let h = r.hist.(k) and b = min (buckets - 1) (d / bucket_ns) in
  h.(b) <- h.(b) + 1;
  if r.stored.(mode) < r.keep then begin
    let i = r.len in
    r.kinds.(i) <- kind;
    r.modes.(i) <- mode;
    r.starts.(i) <- t0;
    r.stops.(i) <- t1;
    r.ids.(i) <- id;
    r.len <- i + 1;
    r.stored.(mode) <- r.stored.(mode) + 1
  end

(* Mean span in ns over all recorders, for one (mode, kind). *)
let mean_ns rs ~mode ~kind =
  let k = (2 * mode) + kind in
  let s = Array.fold_left (fun a r -> a + r.sum.(k)) 0 rs
  and n = Array.fold_left (fun a r -> a + r.count.(k)) 0 rs in
  if n = 0 then 0.0 else float_of_int s /. float_of_int n

(* Quantile from the pooled histograms, at bucket midpoints. *)
let quantile_ns rs ~mode ~kind q =
  let k = (2 * mode) + kind in
  let n = Array.fold_left (fun a r -> a + r.count.(k)) 0 rs in
  let target = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  let rec go b seen =
    if b >= buckets then float_of_int (buckets * bucket_ns)
    else
      let seen = Array.fold_left (fun a r -> a + r.hist.(k).(b)) seen rs in
      if seen >= target then (float_of_int b +. 0.5) *. float_of_int bucket_ns
      else go (b + 1) seen
  in
  if n = 0 then 0.0 else go 0 0

let count rs = Array.fold_left (fun a r -> a + r.len) 0 rs

(* Chrome trace (Trace Event Format) with one complete ("X") event per
   stored span; [ts]/[dur] in microseconds from [origin]. *)
let write_chrome path ~origin ~mode_names rs =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  Array.iter
    (fun r ->
      for i = 0 to r.len - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"id\":%d}}"
          (kind_name r.kinds.(i))
          mode_names.(r.modes.(i))
          (float_of_int (r.starts.(i) - origin) /. 1e3)
          (float_of_int (r.stops.(i) - r.starts.(i)) /. 1e3)
          r.domain r.ids.(i)
      done)
    rs;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
