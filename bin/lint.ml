(* mm-lint CLI: the syntactic rules over the repository's own sources
   (raw-primitive, blocking-in-lockfree, label-registry, sim-capability;
   DESIGN.md §11). The flow-sensitive CAS-window and hazard-pointer
   disciplines are mm-sa's (bin/sa.ml).

     dune exec bin/lint.exe --                      # lint lib/ and bin/
     dune exec bin/lint.exe -- --format json
     dune exec bin/lint.exe -- --root . lib/core
     dune exec bin/lint.exe -- --rule label-registry lib

   Suppress a finding in source, adjacent to the code it excuses:

     (* mm-lint: allow <rule>: <reason> *)

   Exit codes: 0 = clean; 1 = usage error, unreadable/unparseable file
   or unknown suppression rule; 2 = findings. *)

open Cmdliner
module D = Mm_lint.Driver
module R = Mm_lint.Rule

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Repository root; paths are relative to it (default: the \
           nearest ancestor directory containing dune-project).")

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:"Root-relative directories or files to lint (default: lib bin).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

let rules_arg =
  let rule_conv =
    Arg.conv
      ( (fun s ->
          match R.of_name s with
          | Some r -> Ok r
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown rule %s (rules: %s)" s
                     (String.concat ", " (List.map R.name R.all))))),
        fun fmt r -> Format.pp_print_string fmt (R.name r) )
  in
  Arg.(
    value & opt_all rule_conv []
    & info [ "rule" ] ~docv:"RULE"
        ~doc:"Only report findings of $(docv) (repeatable).")

let run root paths format rules =
  let root =
    match root with
    | Some r -> Ok r
    | None -> (
        match find_root () with
        | Some r -> Ok r
        | None -> Error "no dune-project found above the current directory")
  in
  match root with
  | Error e ->
      prerr_endline ("lint: " ^ e);
      1
  | Ok root ->
      let paths = if paths = [] then [ "lib"; "bin" ] else paths in
      let r = D.run ~root ~paths in
      let r =
        if rules = [] then r
        else
          let names = List.map R.name rules in
          let keep (f : Mm_lint.Finding.t) =
            List.mem f.Mm_report.Finding.rule names
          in
          {
            r with
            D.findings = List.filter keep r.D.findings;
            D.suppressed = List.filter keep r.D.suppressed;
          }
      in
      let fmt = Format.std_formatter in
      (match format with
      | `Text -> Mm_report.Output.text fmt r
      | `Json -> Mm_report.Output.json fmt r);
      if r.D.errors <> [] then 1 else if r.D.findings <> [] then 2 else 0

let () =
  let doc =
    "Syntactic static analysis of the lock-free allocator sources: \
     atomics confinement, lock-freedom, the label registry and the \
     simulator capability boundary (rules: "
    ^ String.concat ", " (List.map R.name R.all)
    ^ ")."
  in
  let info = Cmd.info "lint" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info Term.(const run $ root_arg $ paths_arg $ format_arg $ rules_arg)))
