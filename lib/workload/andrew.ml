(** A scaled Andrew-style benchmark (Howard et al., with the scale-up of the
    paper's Section 4).

    The classic five phases, parameterised by [scale]:
    + {b mkdir} — create the directory tree;
    + {b copy}  — populate it with source files;
    + {b scan}  — recursive stat of every object (Andrew's "ls -l");
    + {b read}  — read every byte of every file (Andrew's "grep");
    + {b make}  — read the sources in each directory and write an output
      object (the "compile").

    The paper's scaled-up run generates 1 GB of data; [scale] grows the tree
    and the data volume linearly, and the harness reports MB processed so
    runs at different scales are comparable. *)

type phase_result = {
  phase : string;
  ops : int;
  bytes : int;
  seconds : float;
}

type result = {
  label : string;
  scale : int;
  phases : phase_result list;
  total_seconds : float;
  total_bytes : int;
}

let run ?(cost = Cost_model.default) ~scale (fs : Fs_iface.t) =
  (* Deterministic file contents: compressible text-like bytes. *)
  let file_body ~dir ~file ~len =
    let pattern =
      Printf.sprintf "int f_%d_%d(void) { return %d; } /* generated */\n" dir file (dir * file)
    in
    let b = Buffer.create len in
    while Buffer.length b < len do
      Buffer.add_string b pattern
    done;
    Buffer.sub b 0 len
  in
  let phases = ref [] in
  let record phase ops bytes f =
    let t0 = fs.Fs_iface.elapsed_s () in
    let o0 = fs.Fs_iface.ops () in
    f ();
    let seconds = fs.Fs_iface.elapsed_s () -. t0 in
    let ops = match ops with Some n -> n | None -> fs.Fs_iface.ops () - o0 in
    phases := { phase; ops; bytes; seconds } :: !phases
  in
  let n_dirs = 4 + (2 * scale) in
  let n_files = 3 + min scale 5 in
  let flen = 2048 * (1 + min scale 8) in
  let dir_handles = Array.make n_dirs fs.Fs_iface.root in
  (* Phase 1: mkdir. *)
  record "mkdir" None 0 (fun () ->
      for d = 0 to n_dirs - 1 do
        (* A shallow tree of groups, like Andrew's subtree of dirs. *)
        let parent = if d < 4 then fs.Fs_iface.root else dir_handles.(d mod 4) in
        dir_handles.(d) <- fs.Fs_iface.mkdir ~dir:parent ~name:(Printf.sprintf "dir%03d" d)
      done);
  (* Phase 2: copy. *)
  let copy_bytes = ref 0 in
  record "copy" None 0 (fun () ->
      for d = 0 to n_dirs - 1 do
        for f = 0 to n_files - 1 do
          let body = file_body ~dir:d ~file:f ~len:flen in
          let fh = fs.Fs_iface.create ~dir:dir_handles.(d) ~name:(Printf.sprintf "f%02d.c" f) in
          (* 8 KB wire chunks, like an NFSv2 client. *)
          let rec put off =
            if off < String.length body then begin
              let n = min 8192 (String.length body - off) in
              fs.Fs_iface.write ~fh ~off ~data:(String.sub body off n);
              put (off + n)
            end
          in
          put 0;
          copy_bytes := !copy_bytes + flen
        done
      done);
  (* Patch the recorded bytes for the copy phase. *)
  (phases :=
     match !phases with
     | p :: rest -> { p with bytes = !copy_bytes } :: rest
     | [] -> []);
  (* Phase 3: recursive scan (stat every object). *)
  record "scan" None 0 (fun () ->
      let rec walk dir =
        List.iter
          (fun (name, fh) ->
            ignore (fs.Fs_iface.size_of ~fh);
            match fs.Fs_iface.lookup ~dir ~name with
            | Some (fh', Base_nfs.Nfs_types.Dir) -> walk fh'
            | Some _ | None -> ())
          (fs.Fs_iface.readdir ~dir)
      in
      walk fs.Fs_iface.root);
  (* Phase 4: read every byte. *)
  let read_bytes = ref 0 in
  record "read" None 0 (fun () ->
      let rec walk dir =
        List.iter
          (fun (name, fh) ->
            match fs.Fs_iface.lookup ~dir ~name with
            | Some (fh', Base_nfs.Nfs_types.Dir) -> walk fh'
            | Some (_, Base_nfs.Nfs_types.Reg) ->
              let size = fs.Fs_iface.size_of ~fh in
              let rec get off =
                if off < size then begin
                  let data = fs.Fs_iface.read ~fh ~off ~count:8192 in
                  read_bytes := !read_bytes + String.length data;
                  get (off + 8192)
                end
              in
              get 0
            | Some _ | None -> ())
          (fs.Fs_iface.readdir ~dir)
      in
      walk fs.Fs_iface.root);
  (phases :=
     match !phases with
     | p :: rest -> { p with bytes = !read_bytes } :: rest
     | [] -> []);
  (* Phase 5: make — read sources, burn client CPU, write objects. *)
  let make_bytes = ref 0 in
  record "make" None 0 (fun () ->
      for d = 0 to n_dirs - 1 do
        let sources = fs.Fs_iface.readdir ~dir:dir_handles.(d) in
        let total = ref 0 in
        List.iter
          (fun (name, fh) ->
            if Filename.check_suffix name ".c" then begin
              let size = fs.Fs_iface.size_of ~fh in
              let rec get off =
                if off < size then begin
                  ignore (fs.Fs_iface.read ~fh ~off ~count:8192);
                  get (off + 8192)
                end
              in
              get 0;
              total := !total + size
            end)
          sources;
        fs.Fs_iface.think ~us:(Cost_model.compile_cost_us cost ~bytes:!total);
        let out = fs.Fs_iface.create ~dir:dir_handles.(d) ~name:"output.o" in
        let obj = file_body ~dir:d ~file:999 ~len:(!total / 2) in
        let rec put off =
          if off < String.length obj then begin
            let n = min 8192 (String.length obj - off) in
            fs.Fs_iface.write ~fh:out ~off ~data:(String.sub obj off n);
            put (off + n)
          end
        in
        put 0;
        make_bytes := !make_bytes + !total + (!total / 2)
      done);
  (phases :=
     match !phases with
     | p :: rest -> { p with bytes = !make_bytes } :: rest
     | [] -> []);
  let phases = List.rev !phases in
  {
    label = fs.Fs_iface.label;
    scale;
    phases;
    total_seconds = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 phases;
    total_bytes = List.fold_left (fun acc p -> acc + p.bytes) 0 phases;
  }

let pp_result ppf r =
  Format.fprintf ppf "%-12s scale=%d  (%.1f MB touched)@." r.label r.scale
    (float_of_int r.total_bytes /. 1048576.0);
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-8s %6d ops %10d B %9.3f s@." p.phase p.ops p.bytes p.seconds)
    r.phases;
  Format.fprintf ppf "  %-8s %28s %9.3f s@." "total" "" r.total_seconds
