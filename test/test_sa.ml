(* mm-sa checked end-to-end: every planted fixture fires with its file
   and line, the real tree is clean modulo the three reasoned
   suppressions, the shared suppression machinery routes covered
   findings into the suppressed list, the --analysis filter narrows the
   run, and a typoed suppression token is an error.

   The fixture libraries under test/sa_fixtures are compiled (the test
   depends on @check), so mm-sa reads the same kind of .cmt artifacts
   here as it does for the real tree. *)

module D = Mm_sa.Driver
module A = Mm_sa.Analysis
module F = Mm_report.Finding
open Util

(* mm-sa needs the real repository root — both the sources and the
   _build tree holding the .cmt files. Under dune the test runs in
   _build/default/test, so walk up to the directory that contains
   _build/default (the _build mirror itself has no nested _build). *)
let repo_root () =
  let rec up dir =
    let probe = Filename.concat dir "_build/default" in
    if Sys.file_exists probe && Sys.is_directory probe then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "cannot locate the repository root"
      else up parent
  in
  up (Sys.getcwd ())

let fixture_paths = D.default_paths @ [ "test/sa_fixtures" ]

let lines rule file r =
  List.sort compare
    (List.filter_map
       (fun (f : F.t) ->
         if f.F.rule = rule && f.F.file = file then Some f.F.line else None)
       r.D.findings)

let suppressed_pairs r =
  List.sort compare
    (List.map (fun (f : F.t) -> (f.F.file, f.F.rule)) r.D.suppressed)

let fixtures_flagged () =
  let r = D.run ~root:(repo_root ()) ~paths:fixture_paths () in
  (* every planted violation is reported, with its file and line *)
  Alcotest.(check (list int))
    "S1: raw deref, unvalidated deref, leaked slot, parameter deref, \
     unvalidated helper-result deref"
    [ 18; 26; 37; 48; 57 ]
    (lines "hp-protocol" "test/sa_fixtures/lib/core/bad_hp.ml" r);
  Alcotest.(check (list int))
    "S2: stale expected + double commit" [ 14; 24 ]
    (lines "cas-loop-progress" "test/sa_fixtures/lib/core/bad_retry.ml" r);
  Alcotest.(check (list int))
    "S3: unfenced publish + unfenced chain (fenced twins clean)" [ 16; 49 ]
    (lines "write-before-publish" "test/sa_fixtures/lib/core/bad_publish.ml"
       r);
  Alcotest.(check (list int))
    "S4: unlabelled loop, undischarged window, escaped entry, \
     undischarged window after a read"
    [ 18; 22; 28; 34 ]
    (lines "label-dominance" "test/sa_fixtures/lib/core/bad_label.ml" r);
  Alcotest.(check (list int))
    "S4: label before the read, no label, helping CAS, one-armed label, \
     label before a read closed by a helper's CAS"
    [ 16; 21; 27; 33; 41 ]
    (lines "label-dominance" "test/sa_fixtures/lib/core/bad_window.ml" r);
  Alcotest.(check (list int))
    "S4: pages fixture (unlabelled loop, label before the read)" [ 9; 16 ]
    (lines "label-dominance" "test/sa_fixtures/lib/pages/bad_order_cas.ml" r);
  (* ... and nothing else: the clean twins and the real tree contribute
     no findings *)
  Alcotest.(check int) "only fixture findings" 20
    (List.length r.D.findings);
  List.iter
    (fun (f : F.t) ->
      if not (String.starts_with ~prefix:"test/sa_fixtures/" f.F.file) then
        Alcotest.failf "real-tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  (* the covered fixture violation moved to the suppressed list,
     alongside the real tree's two documented suppressions *)
  Alcotest.(check (list (pair string string)))
    "suppressed"
    [
      ("lib/core/desc_pool.ml", "hp-protocol");
      ("lib/mem/space.ml", "label-dominance");
      ("test/sa_fixtures/lib/core/sup_ok.ml", "write-before-publish");
    ]
    (suppressed_pairs r);
  (* a typoed token is an error, not a silent no-op *)
  Alcotest.(check (list (pair string string)))
    "unknown suppression token"
    [
      ( "test/sa_fixtures/lib/core/bad_token.ml",
        "line 4: mm-sa suppression names no known analysis (hp-protokol)" );
    ]
    r.D.errors

let real_tree_clean () =
  let r = D.run ~root:(repo_root ()) () in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun (f : F.t) ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  Alcotest.(check (list (pair string string)))
    "documented suppressions"
    [
      ("lib/core/desc_pool.ml", "hp-protocol");
      ("lib/mem/space.ml", "label-dominance");
    ]
    (suppressed_pairs r)

let analysis_filter () =
  let r =
    D.run ~root:(repo_root ())
      ~analyses:[ A.Write_before_publish ]
      ~paths:fixture_paths ()
  in
  List.iter
    (fun (f : F.t) ->
      Alcotest.(check string) "filtered rule only" "write-before-publish"
        f.F.rule)
    r.D.findings;
  Alcotest.(check (list int))
    "S3 fixtures still fire" [ 16; 49 ]
    (lines "write-before-publish" "test/sa_fixtures/lib/core/bad_publish.ml"
       r);
  Alcotest.(check int) "S4 fixtures filtered out" 2
    (List.length r.D.findings)

(* the first index of [sub] in [s]; test_lint.ml shares it *)
let find_sub ~sub s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else at (i + 1)
  in
  at 0

(* Undoing either step of Fig. 7's SafeRead in the one real hazard pop
   (Desc_pool.hazard_pop) must be reported by hp-protocol at the link
   read: delete the Hp.protect line, or neutralize the re-read of the
   head that re-validates the protected descriptor. *)
let protect_deletion_detected () =
  let root = repo_root () in
  let path = "lib/core/desc_pool.ml" in
  let text =
    match D.load ~root [ path ] with
    | [ u ], [] -> u.Mm_sa.Tast.u_text
    | _ -> Alcotest.failf "%s does not load" path
  in
  let hp_findings text' =
    match Mm_sa.Tast.typecheck ~root ~path text' with
    | Error e -> Alcotest.failf "mutant no longer typechecks: %s" e
    | Ok u ->
        lines "hp-protocol" path
          (D.analyze_units ~analyses:[ A.Hp_protocol ] [ u ])
  in
  (* the one line of [text'] containing [sub], 1-based *)
  let line_of ~sub text' =
    match
      List.filter
        (fun (_, l) -> find_sub ~sub l <> None)
        (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text'))
    with
    | [ (n, _) ] -> n
    | l -> Alcotest.failf "%d lines of %s contain %S" (List.length l) path sub
  in
  Alcotest.(check (list int)) "the unmutated pool is clean" []
    (hp_findings text);
  let deref = "d.Descriptor.next_d in" in
  (* 1: no protect *)
  let protect = line_of ~sub:"Hp.protect" text in
  let no_protect =
    String.concat "\n"
      (List.filteri (fun j _ -> j <> protect - 1)
         (String.split_on_char '\n' text))
  in
  Alcotest.(check (list int)) "protect deleted"
    [ line_of ~sub:deref no_protect ]
    (hp_findings no_protect);
  (* 2: protected, but the head is never re-read *)
  let reread = "Rt.Atomic.get p.head != old" in
  let i = Option.get (find_sub ~sub:reread text) in
  let j = i + String.length reread in
  let no_reread =
    String.sub text 0 i ^ "false" ^ String.sub text j (String.length text - j)
  in
  Alcotest.(check (list int)) "re-validation neutralized"
    [ line_of ~sub:deref no_reread ]
    (hp_findings no_reread)

let cases =
  [
    case "fixtures: every analysis fires where planted" fixtures_flagged;
    case "real tree is sa-clean" real_tree_clean;
    case "--analysis narrows the run" analysis_filter;
    case "deleting a hazard-protocol step is detected"
      protect_deletion_detected;
  ]
