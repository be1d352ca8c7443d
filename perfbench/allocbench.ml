(* Wall-clock allocator benchmark on real domains.

     allocbench --workload W --seed N --seconds S --trace 0|1
                [--spans FILE] [--faulty]

   One run sets up the three allocator modes once, then measures
   workload W for about S seconds in rounds.
   Each round runs every mode in turn, in a rotated order, so a drift
   in host speed hits all modes alike; the fixed floor loop is sampled
   beside each round. Reported values are medians over rounds, except
   the 2-domain rates and latencies of --trace 0, which come from the
   quietest quarter of the rounds.

   --trace 0 prints the end-to-end metrics: per mode, 2-domain and
   1-domain throughput, 2-domain p90 of 64-call batch means, and the
   mapped-space peak, plus the set-up time (program start to the first
   timed call).
   --trace 1 prints the per-layer ledger: isolated loops over each
   layer's public functions, per-mode counters read around the timed
   windows, spans around every instance call (written to FILE as a
   Chrome trace), and the throughput cost of those spans.
   --faulty wraps every heap in a planted fault (a block handed out
   twice) that the stamp oracle must catch; used by the self-test.

   The last line of output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Exit code 0 unless the arguments are wrong, or a warm-up or the gc
   probe stopped short of its call count (a fault of the benchmark). *)

let usage () =
  prerr_endline
    "usage: allocbench --workload threadtest|larson|exchange --seed N \
     --seconds S --trace 0|1 [--spans FILE] [--faulty]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans : string;
  faulty : bool;
}

let parse () =
  let w = ref "" and seed = ref None and secs = ref None and trace = ref None in
  let spans = ref "" and faulty = ref false in
  let rec go = function
    | "--workload" :: v :: r -> w := v; go r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; go r
    | "--seconds" :: v :: r -> secs := float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); go r
    | "--spans" :: v :: r -> spans := v; go r
    | "--faulty" :: r -> faulty := true; go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !secs, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !w Workloads.names && seconds > 0.0 ->
      { workload = !w; seed; seconds; trace; spans = !spans; faulty = !faulty }
  | _ -> usage ()

(* --- Output -------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let emit name value unit = metrics := (name, value, unit) :: !metrics

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.4f %s\n" n v u) ms;
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " body)

(* --- Set-up -------------------------------------------------------- *)

let nmodes = Array.length Modes.names

let attempted = ref 0
let failed = ref 0

type rig = {
  modes : Modes.t array;
  ctxs : Workloads.ctx array;
  duo : Workloads.runner;
  solo : Workloads.runner;
}

(* Heap creation for all modes, then a fixed warm-up of each mode on
   two domains (which also spawns them). A warm-up that stops short of
   [warm_ops] calls per domain with no failed op is a fault of the
   benchmark itself, so it aborts the run. *)
let set_up a inputs ~warm_ops ~keep =
  let modes =
    Array.map
      (fun n ->
        let m = Modes.create n in
        if a.faulty then { m with Modes.inst = Modes.faulty m.Modes.inst }
        else m)
      Modes.names
  in
  let ctxs =
    Array.init 2 (fun d -> Workloads.ctx ~nmodes ~keep d modes.(0).inst)
  in
  let duo = Workloads.runner inputs ctxs ~ndom:2
  and solo = Workloads.runner inputs [| ctxs.(0) |] ~ndom:1 in
  Array.iteri
    (fun i m ->
      Workloads.run duo m ~mode:i ~traced:false ~dur_ns:max_int
        ~max_ops:warm_ops;
      if
        Array.for_all (fun (c : Workloads.ctx) -> c.failed = 0) ctxs
        && Array.exists (fun n -> n < warm_ops) duo.timed_ops
      then failwith "warm-up stopped short")
    modes;
  { modes; ctxs; duo; solo }

let retire rig =
  Array.iter
    (fun (c : Workloads.ctx) ->
      attempted := !attempted + c.ops;
      failed := !failed + c.failed)
    rig.ctxs

let check (m : Modes.t) =
  incr attempted;
  try m.inst.check () with _ -> incr failed

(* --- Runs ---------------------------------------------------------- *)

let per_mode f = Array.init nmodes f

let order r = List.init nmodes (fun i -> (r + i) mod nmodes)

let end_to_end a rig ~rounds ~setup_s ~duo_ns ~solo_ns =
  let runs () = per_mode (fun _ -> Array.make rounds 0.0) in
  let duo_mops = runs () and solo_mops = runs () and raw_solo = runs () in
  let p99 = runs () and p90 = runs () and p50 = runs () in
  let peak = runs () and samples = Array.make nmodes 0 in
  let floor = Array.make (rounds * nmodes * 2) 0.0 and nfloor = ref 0 in
  let note_floor r =
    floor.(!nfloor) <- Workloads.floor r;
    incr nfloor
  in
  for r = 0 to rounds - 1 do
    List.iter
      (fun i ->
        let m = rig.modes.(i) in
        Modes.reset_peaks m;
        Workloads.run rig.duo m ~mode:i ~traced:false ~dur_ns:duo_ns
          ~max_ops:max_int;
        peak.(i).(r) <- float_of_int (Modes.mapped_peak m) /. 1024.0;
        duo_mops.(i).(r) <- Workloads.mops rig.duo;
        note_floor rig.duo;
        let lat = Workloads.latencies rig.duo in
        Array.sort compare lat;
        p99.(i).(r) <- Util.quantile_sorted lat 0.99;
        p90.(i).(r) <- Util.quantile_sorted lat 0.9;
        p50.(i).(r) <- Util.quantile_sorted lat 0.5;
        samples.(i) <- samples.(i) + Array.length lat;
        check m;
        Workloads.run rig.solo m ~mode:i ~traced:false ~dur_ns:solo_ns
          ~max_ops:max_int;
        solo_mops.(i).(r) <- Workloads.rescaled_mops rig.solo;
        raw_solo.(i).(r) <- Workloads.mops rig.solo;
        note_floor rig.solo;
        check m)
      (order r)
  done;
  Printf.printf
    "workload %s seed %d: %d rounds; per mode a %.0f ms 2-domain and a %.0f \
     ms 1-domain phase; minor heap %d words\n"
    a.workload a.seed rounds
    (float_of_int duo_ns /. 1e6)
    (float_of_int solo_ns /. 1e6)
    (Gc.get ()).Gc.minor_heap_size;
  (* The 2-domain figures are rescaled by the floor's median over the
     whole process, not per phase: one phase's floor sample is too noisy
     for them, while the host phases that move them last longer than a
     process. The 1-domain rates are rescaled per phase. The 2-domain
     figures also come from the quietest quarter of the rounds (the
     upper quartile of the rates, the lower quartile of the latencies):
     host interference stops both domains at once and hits a few rounds
     hard. README.md has the evidence for both. *)
  let speed = Util.median floor /. Workloads.reference_floor_ns in
  let quiet_mops rs = Util.quantile rs 0.75
  and quiet_ns rs = Util.quantile rs 0.25 in
  Printf.printf
    "runtime.floor_ns beside each phase: median %.3f, min %.3f, max %.3f; \
     rates and p90 below are rescaled to a %.1f ns floor\n"
    (Util.median floor) (Util.quantile floor 0.0) (Util.quantile floor 1.0)
    Workloads.reference_floor_ns;
  Array.iteri
    (fun i n ->
      Printf.printf
        "%s: as measured, median round: 2 domains %.3f Mops/s, batch-mean \
         latency p50 %.1f ns, p90 %.1f ns, p99 %.1f ns (%d samples of 64+ \
         calls); 1 domain %.3f Mops/s\n"
        n (Util.median duo_mops.(i)) (Util.median p50.(i))
        (Util.median p90.(i)) (Util.median p99.(i)) samples.(i)
        (Util.median raw_solo.(i)))
    Modes.names;
  emit "setup_s" setup_s "s";
  Array.iteri
    (fun i n ->
      emit (n ^ ".mops") (quiet_mops duo_mops.(i) *. speed) "Mops/s";
      emit (n ^ ".solo_mops") (Util.median solo_mops.(i)) "Mops/s";
      emit (n ^ ".p90_ns") (quiet_ns p90.(i) /. speed) "ns";
      emit (n ^ ".peak_kib") (Util.median peak.(i)) "KiB")
    Modes.names

let gc_probe_ops = 200_000

let per_1k n ops = if ops = 0 then 0.0 else float_of_int n *. 1e3 /. float_of_int ops

let ledger a rig ~rounds ~phase_ns ~iso_scale ~origin =
  let rows = Layers.rows () in
  let iso = List.map (fun _ -> Array.make rounds 0.0) rows in
  let plain = per_mode (fun _ -> Array.make rounds 0.0)
  and traced = per_mode (fun _ -> Array.make rounds 0.0)
  and window = per_mode (fun _ -> None)
  and window_ops = Array.make nmodes 0 in
  let add_window i =
    let w = Option.get rig.duo.window in
    window.(i) <-
      Some (match window.(i) with None -> w | Some acc -> Modes.add acc w);
    window_ops.(i) <- window_ops.(i) + rig.duo.window_ops
  in
  for r = 0 to rounds - 1 do
    List.iter2
      (fun (_, _, f, n) samples ->
        samples.(r) <- f (max 1 (int_of_float (float_of_int n *. iso_scale))))
      rows iso;
    List.iter
      (fun i ->
        let m = rig.modes.(i) in
        Workloads.run rig.duo m ~mode:i ~traced:false ~dur_ns:phase_ns
          ~max_ops:max_int;
        plain.(i).(r) <- Workloads.mops rig.duo;
        add_window i;
        check m;
        Workloads.run rig.duo m ~mode:i ~traced:true ~dur_ns:phase_ns
          ~max_ops:max_int;
        traced.(i).(r) <- Workloads.mops rig.duo;
        add_window i;
        check m)
      (order r)
  done;
  List.iter2 (fun (name, unit, _, _) s -> emit name (Util.median s) unit) rows iso;
  let recs = Array.map (fun (c : Workloads.ctx) -> c.spans) rig.ctxs in
  Array.iteri
    (fun i n ->
      let w = Option.get window.(i) and ops = window_ops.(i) in
      emit (n ^ ".mmap_per_1k") (per_1k w.mmaps ops) "count/1k";
      emit (n ^ ".munmap_per_1k") (per_1k w.munmaps ops) "count/1k";
      let mean kind = Spans.mean_ns recs ~mode:i ~kind
      and p99 kind = Spans.quantile_ns recs ~mode:i ~kind 0.99 in
      emit (n ^ ".malloc_ns") (mean Spans.malloc) "ns";
      emit (n ^ ".free_ns") (mean Spans.free) "ns";
      emit (n ^ ".malloc_p99_ns") (p99 Spans.malloc) "ns";
      emit (n ^ ".free_p99_ns") (p99 Spans.free) "ns";
      let total = List.fold_left (fun acc (_, k) -> acc + k) 0 w.retries in
      emit (n ^ ".cas_fail_per_1k") (per_1k total ops) "count/1k";
      List.iter
        (fun site ->
          let k = try List.assoc site w.retries with Not_found -> 0 in
          emit (n ^ ".cas_fail." ^ site) (per_1k k ops) "count/1k")
        Modes.cas_sites)
    Modes.names;
  (* OCaml heap words the allocator itself allocates per op, from a
     1-domain phase on this domain: every minor collection stops both
     domains, so these words couple them. *)
  Array.iteri
    (fun i n ->
      let w0 = Gc.minor_words () and ops0 = Workloads.issued rig.solo in
      Workloads.run rig.solo rig.modes.(i) ~mode:i ~traced:false
        ~dur_ns:max_int ~max_ops:gc_probe_ops;
      let ops = Workloads.issued rig.solo - ops0 in
      if ops < gc_probe_ops && rig.ctxs.(0).failed = 0 then
        failwith "gc probe stopped short";
      emit (n ^ ".gc_words_per_op")
        ((Gc.minor_words () -. w0) /. float_of_int (max 1 ops))
        "words")
    Modes.names;
  let c = Option.get window.(1) and cops = window_ops.(1) in
  let lookups = c.hits + c.misses in
  emit "cached.hit_pct"
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int c.hits /. float_of_int lookups)
    "%";
  emit "cached.flush_per_1k" (per_1k c.flushes cops) "count/1k";
  emit "cached.remote_per_1k" (per_1k c.remote cops) "count/1k";
  let sum a = Array.fold_left (fun acc x -> acc +. Util.median x) 0.0 a in
  emit "trace.overhead_pct" (100.0 *. (1.0 -. (sum traced /. sum plain))) "%";
  if a.spans <> "" then begin
    Spans.write_chrome a.spans ~origin ~mode_names:Modes.names recs;
    Printf.printf "wrote %d spans to %s\n" (Spans.count recs) a.spans
  end

let () =
  let origin = Util.now_ns () in
  let a = parse () in
  let inputs = Workloads.inputs a.workload ~seed:a.seed in
  (* Runs shorter than 3 s (one process of an untraced run is 3 s)
     shrink every fixed-size part alike, so a tiny self-test run
     exercises every path. *)
  let scale = Float.min 1.0 (a.seconds /. 3.0) in
  let warm_ops = max 4096 (int_of_float (65536.0 *. scale)) in
  let keep = if a.trace then 4096 else 0 in
  let rig = set_up a inputs ~warm_ops ~keep in
  (* Two rounds per second: each mode's share of a round is short, so
     the modes see the same host phases. *)
  let rounds = max 3 (int_of_float (a.seconds *. 2.0)) in
  let round_ns share =
    int_of_float (a.seconds *. 1e9 *. share /. float_of_int (rounds * nmodes))
  in
  if a.trace then
    (* About a fifth of the time goes to the isolated loops; the rest
       to an untraced and a traced 2-domain phase per mode. *)
    ledger a rig ~rounds ~phase_ns:(round_ns 0.4)
      ~iso_scale:(scale *. 40.0 /. float_of_int rounds)
      ~origin
  else begin
    (* 1-domain rates spread least across runs, so the 2-domain phases
       get three quarters of the time. *)
    end_to_end a rig ~rounds
      ~setup_s:(float_of_int (Util.now_ns () - origin) /. 1e9)
      ~duo_ns:(round_ns 0.75) ~solo_ns:(round_ns 0.25)
  end;
  retire rig;
  print_result ~attempted:!attempted ~failed:!failed
