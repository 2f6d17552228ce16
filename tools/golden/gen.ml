(* One line per (entry, finding): "<id>|<finding>". Findings sorted per
   entry so the snapshot is insensitive to emission order. *)
let () =
  List.iter
    (fun (e : Corpus.entry) ->
      let p = Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source in
      let fs =
        List.sort compare
          (List.map Detectors.Report.to_string
             (Detectors.All.all_ctx (Rustudy.Cache.create p)))
      in
      List.iter (fun f -> Printf.printf "%s|%s\n" e.Corpus.id f) fs)
    Corpus.all_bugs
