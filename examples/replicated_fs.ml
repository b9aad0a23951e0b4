(* BASE-FS: the paper's replicated NFS file service.

   Four replicas run four different off-the-shelf file-system
   implementations behind conformance wrappers; the client mounts one
   logical file system and cannot tell them apart.

   Run with: dune exec examples/replicated_fs.exe *)

open Base_nfs.Nfs_types
module C = Base_nfs.Nfs_client
module Runtime = Base_core.Runtime
module Systems = Base_workload.Systems

let () =
  let sys = Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  Printf.printf "replica -> implementation:\n";
  Array.iteri (fun rid name -> Printf.printf "  replica %d runs %s\n" rid name)
    sys.Systems.impl_of;
  let nfs = Systems.nfs_client rt ~client:0 in
  (* Build a small project tree. *)
  let src = C.mkdir_p nfs "/home/alice/project/src" in
  let _readme =
    C.write_file nfs (C.mkdir_p nfs "/home/alice/project") "README" ~chunk:4096
      "A file stored on four different file systems at once.\n"
  in
  let main_c = C.write_file nfs src "main.c" ~chunk:4096 "int main(void) { return 0; }\n" in
  ignore (C.ok (C.symlink nfs src "main.link" "main.c" sattr_empty));
  (* Read it back through the replicated service. *)
  Printf.printf "\n/home/alice/project/src:\n";
  List.iter
    (fun (name, o) ->
      let a = C.ok (C.getattr nfs o) in
      Printf.printf "  %-10s %s %5d bytes oid=%d.%d mtime=%.3fs\n" name
        (ftype_to_string a.ftype) a.size o.index o.gen
        (Int64.to_float a.mtime /. 1e6))
    (C.ok (C.readdir nfs src));
  Printf.printf "\nmain.c says: %s" (C.read_file nfs main_c ~chunk:4096);
  (* Show that the four concrete states agree abstractly... *)
  Printf.printf "\nabstract state roots:\n";
  Array.iter
    (fun node ->
      Format.printf "  replica %d (%s): %a@." node.Runtime.rid
        node.Runtime.wrapper.Base_core.Service.name Base_crypto.Digest_t.pp
        (Base_core.Objrepo.current_root node.Runtime.repo))
    (Runtime.replicas rt);
  (* ...while their concrete file handles differ wildly. *)
  Printf.printf "\nconcrete root handles (the non-determinism BASE hides):\n";
  Array.iteri
    (fun rid (server : Base_fs.Server_intf.t) ->
      Printf.printf "  replica %d: %S\n" rid (server.Base_fs.Server_intf.root ()))
    sys.Systems.servers
