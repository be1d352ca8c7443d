(* mm-lint checked: every rule fires on its planted fixture, the real
   tree is clean (modulo the documented suppressions), and deleting
   any Rt.label line from the lock-free sections is caught — by mm-sa's
   label-dominance when the label guards a CAS window, by R5's
   unused-entry check otherwise.

   The tests run against the _build source mirror: dune copies every
   library source there because the test links every library, so the
   linted tree is exactly the one being compiled. *)

module D = Mm_lint.Driver
module F = Mm_report.Finding
module R = Mm_lint.Rule
module Src = Mm_lint.Source
open Util

(* cwd is _build/default/test; its parent holds lib/ and test/. Falls
   back to dune-project for runs from the real root. *)
let tree_root () =
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    || (is_dir (Filename.concat dir "lib")
       && is_dir (Filename.concat dir "test"))
  in
  let rec up dir =
    if looks_like_root dir then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "cannot locate the source tree"
      else up parent
  in
  up (Sys.getcwd ())

let count rule file r =
  List.length
    (List.filter
       (fun (f : F.t) -> f.F.rule = R.name rule && f.F.file = file)
       r.D.findings)

let fixtures_flagged () =
  let root = Filename.concat (tree_root ()) "test/lint_fixtures" in
  let r = D.run ~root ~paths:[ "lib" ] in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  Alcotest.(check int) "R2 fixture" 5
    (count R.Raw_primitive "lib/core/bad_raw_mutex.ml" r);
  Alcotest.(check int) "R3 fixture" 2
    (count R.Blocking_in_lockfree "lib/core/bad_blocking.ml" r);
  Alcotest.(check int) "R5 fixture: literal label" 1
    (count R.Label_registry "lib/core/bad_literal_label.ml" r);
  Alcotest.(check int) "R5 fixture: dup + orphan + unlisted" 3
    (count R.Label_registry "lib/core/labels.ml" r);
  Alcotest.(check int) "R6 fixture: facilities + hooked create" 3
    (count R.Sim_capability "lib/harness/bad_sim_hook.ml" r);
  (* the clean fixtures stay clean *)
  List.iter
    (fun file ->
      List.iter
        (fun rule ->
          Alcotest.(check int) ("clean " ^ file) 0 (count rule file r))
        R.all)
    [ "lib/core/good_labelled.ml"; "lib/lockfree/good_ring.ml";
      "lib/lockfree/lf_labels.ml" ];
  (* the fixture suppression moved its finding to the suppressed list *)
  Alcotest.(check int) "suppressed count" 1 (List.length r.D.suppressed);
  match r.D.suppressed with
  | [ f ] ->
      Alcotest.(check string) "suppressed file" "lib/core/good_labelled.ml"
        f.F.file;
      Alcotest.(check string) "suppressed rule" "label-registry" f.F.rule
  | _ -> Alcotest.fail "expected exactly one suppressed finding"

let unknown_suppression_rule_is_error () =
  match
    Src.parse ~path:"lib/core/x.ml"
      "(* mm-lint: allow hp-protekt: typo *)\nlet x = 1\n"
  with
  | Error e -> Alcotest.failf "fixture did not parse: %s" e
  | Ok src -> (
      Alcotest.(check int) "no suppression accepted" 0
        (List.length src.Src.suppressions);
      match src.Src.bad_suppressions with
      | [ (1, "hp-protekt") ] -> ()
      | _ -> Alcotest.fail "typoed rule token was not flagged")

let real_tree_clean () =
  let r = D.run ~root:(tree_root ()) ~paths:[ "lib" ] in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun f ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  (* exactly the documented suppressions: the obs ring's host-side
     cursor — four references inside one module item, DESIGN.md §12 *)
  Alcotest.(check (list (pair string string)))
    "documented suppressions"
    [
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
    ]
    (List.sort compare
       (List.map (fun (f : F.t) -> (f.F.file, f.F.rule)) r.D.suppressed))

(* Deleting any Rt.label line must be caught by R5 ∪ sa: by mm-sa's
   label-dominance when the label opens a CAS window (on the path from
   the read to the CAS, in this function or behind a parameterized call
   such as Tis.pop), by R5's unused-entry check when the label is the
   last use of its registry entry. The undetected set must be empty.
   The labels only R5 catches are census markers that open no CAS
   window of their own: scheduling points. They are pinned here so a
   marker that starts guarding a CAS (or a window label that loses its
   CAS) shows up as a change to this list. *)
let label_deletion_detected () =
  let root = tree_root () in
  let sa_root = Test_sa.repo_root () in
  let files =
    D.collect ~root [ "lib/core"; "lib/lockfree"; "lib/mem"; "lib/pages" ]
  in
  let sources, errs = D.load ~root files in
  Alcotest.(check (list (pair string string))) "sources load" [] errs;
  (* .cmt loads are cached once; each sa probe re-typechecks only the
     modified unit against the compiled interfaces *)
  let sa_units, sa_errs =
    Mm_sa.Driver.load ~root:sa_root
      (Mm_sa.Driver.collect ~root:sa_root Mm_sa.Driver.default_paths)
  in
  Alcotest.(check (list (pair string string))) "units load" [] sa_errs;
  let sa_detects path text' =
    match Mm_sa.Tast.typecheck ~root:sa_root ~path text' with
    | Error e -> Alcotest.failf "%s no longer typechecks: %s" path e
    | Ok u' ->
        let units =
          List.map
            (fun (u : Mm_sa.Tast.unit_t) ->
              if u.Mm_sa.Tast.u_path = path then u' else u)
            sa_units
        in
        (Mm_sa.Driver.analyze_units units).Mm_sa.Driver.findings <> []
  in
  let r5 = R.name R.Label_registry in
  let deletions = ref 0 and undetected = ref [] and r5_only = ref [] in
  List.iter
    (fun (src : Src.t) ->
      let lines = String.split_on_char '\n' src.Src.text in
      List.iteri
        (fun i line ->
          if Test_sa.find_sub ~sub:"Rt.label" line <> None then begin
            incr deletions;
            let text' =
              String.concat "\n"
                (List.filteri (fun j _ -> j <> i) lines)
            in
            match Src.parse ~path:src.Src.path text' with
            | Error e ->
                Alcotest.failf "%s minus line %d no longer parses: %s"
                  src.Src.path (i + 1) e
            | Ok src' ->
                let tree =
                  List.map
                    (fun (s : Src.t) ->
                      if s.Src.path = src.Src.path then src' else s)
                    sources
                in
                let by_r5 =
                  List.exists
                    (fun (f : F.t) -> f.F.rule = r5)
                    (D.lint_sources tree).D.findings
                in
                let site = (src.Src.path, String.trim line) in
                match (by_r5, sa_detects src.Src.path text') with
                | false, false -> undetected := site :: !undetected
                | true, false -> r5_only := site :: !r5_only
                | _, true -> ()
          end)
        lines)
    sources;
  (* the walk actually exercised the instrumentation points *)
  Alcotest.(check bool) "saw many label sites" true (!deletions > 20);
  Alcotest.(check (list (pair string string)))
    "every label deletion is detected by R5 or sa" []
    (List.rev !undetected);
  (* "Rt.label t.rt Labels.free_empty;" -> "free_empty" *)
  let registry_entry (_, line) =
    let last = List.hd (List.rev (String.split_on_char '.' line)) in
    String.concat "" (String.split_on_char ';' last)
  in
  Alcotest.(check (list string))
    "the marker labels are the ones only R5 catches"
    [
      "free_empty";
      "ma_popped";
      "ma_reserved";
      "mp_got_partial";
      "ua_return_credits";
    ]
    (List.sort compare (List.map registry_entry !r5_only))

let cases =
  [
    case "fixtures: every rule fires where planted" fixtures_flagged;
    case "unknown suppression rule is an error" unknown_suppression_rule_is_error;
    case "real tree is lint-clean" real_tree_clean;
    case "deleting any Rt.label is detected" label_deletion_detected;
  ]
