(* Clock, order statistics and a two-party spin barrier. *)

(* CLOCK_MONOTONIC in nanoseconds; unboxed and allocation-free, so it
   can sit inside a timed loop without feeding the GC. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A fixed ALU + Bytes load loop, in ns per iteration. Its speed moves
   only with the host (frequency, a busy sibling hyperthread), so
   sampled beside a measurement it exposes host speed phases. *)
let floor_buf = Bytes.make 4096 '\001'
let floor_sink = ref 0

let floor n =
  let t0 = now_ns () and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := (!acc * 31) + Bytes.get_uint8 floor_buf (i land 4095)
  done;
  floor_sink := !acc;
  float_of_int (now_ns () - t0) /. float_of_int n

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, the convention of
   Python's statistics.quantiles(method="inclusive"), on a sorted
   array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* A reusable barrier for [parties] domains (sense-reversing). Waiters
   spin: the benchmark never runs more domains than the host has
   cores, so a waiter never holds the core its partner needs. *)
type barrier = { parties : int; count : int Atomic.t; sense : bool Atomic.t }

let barrier parties =
  { parties; count = Atomic.make 0; sense = Atomic.make false }

let await b =
  let s = Atomic.get b.sense in
  if Atomic.fetch_and_add b.count 1 = b.parties - 1 then begin
    Atomic.set b.count 0;
    Atomic.set b.sense (not s)
  end
  else
    while Atomic.get b.sense = s do
      Domain.cpu_relax ()
    done
